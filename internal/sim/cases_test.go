// Shared workload shapes for the external sim_test package: the
// resident Fig10, demand-paging-with-switching Fig12 and
// lazy-allocation-with-local-handling Fig13 cells the golden table and
// the telemetry tests run.
//
// The tests live in the external sim_test package because the workload
// builders import sim.
package sim_test

import (
	"testing"

	"gpues/internal/config"
	"gpues/internal/excep"
	"gpues/internal/sim"
	"gpues/internal/workloads"
)

// parCase is one workload/config shape.
type parCase struct {
	name  string
	bench string
	place workloads.Placement
	mut   func(*config.Config)
	modes []excep.Mode
}

func parCases() []parCase {
	return []parCase{
		{
			// Fig10 shape: resident data, the operand-log pipeline.
			name: "fig10-lbm-operand-log", bench: "lbm",
			place: workloads.Resident(),
			mut:   func(c *config.Config) { c.Scheme = config.OperandLog },
			modes: []excep.Mode{excep.ModePrecise},
		},
		{
			// Fig12 shape: on-demand paging with block switching on fault.
			name: "fig12-sgemm-paging-switching", bench: "sgemm",
			place: workloads.DemandPaging(),
			mut: func(c *config.Config) {
				c.Scheme = config.ReplayQueue
				c.DemandPaging = true
				c.Scheduler.Enabled = true
			},
			modes: []excep.Mode{excep.ModePrecise, excep.ModePreemptible},
		},
		{
			// Fig13 shape: lazy allocation with GPU-local fault handling.
			name: "fig13-halloc-spree-lazy-local", bench: "halloc-spree",
			place: workloads.LazyOutput(),
			mut: func(c *config.Config) {
				c.Scheme = config.ReplayQueue
				c.LazyOutput = true
				c.Local.Enabled = true
			},
			modes: []excep.Mode{excep.ModePrecise, excep.ModePreemptible},
		},
	}
}

// buildSpec builds the case's workload afresh: runs mutate the
// functional memory image, so every simulation needs its own.
func buildSpec(t *testing.T, pc parCase) sim.LaunchSpec {
	t.Helper()
	spec, err := workloads.Build(pc.bench, workloads.Params{Scale: 1, Placement: pc.place})
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func caseConfig(pc parCase, mode excep.Mode) config.Config {
	cfg := config.Default()
	pc.mut(&cfg)
	cfg.Excep.Mode = mode
	return cfg
}
