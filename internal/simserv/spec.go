// Package simserv is the simulation-as-a-service job fabric: a
// coordinator that accepts simulation jobs over HTTP/JSON and hands
// them to pull-based workers under a claim/lease protocol, with
// bounded retries, checkpoint-carrying preemption, a fingerprint-keyed
// result cache, per-tenant admission control, a crash-only journal,
// and graceful drain. The deterministic queue state machine underneath
// lives in simserv/queue; this package owns everything with a clock,
// a socket or a disk.
package simserv

import (
	"fmt"

	"gpues/internal/config"
	"gpues/internal/sim"
	"gpues/internal/workloads"
)

// JobSpec names one simulation: a benchmark plus the configuration
// axes the CLI exposes. It is the submit payload and the unit the
// result cache is keyed on (via the simulator's config/spec
// fingerprints, not this struct's encoding — two spellings of the
// same simulation share a cache entry).
type JobSpec struct {
	Benchmark string `json:"benchmark"`
	Scale     int    `json:"scale,omitempty"` // default 1
	// Scheme is the pipeline scheme: baseline, wd-commit,
	// wd-lastcheck, replay-queue or operand-log (default baseline).
	Scheme string `json:"scheme,omitempty"`
	// Link is the CPU-GPU interconnect: nvlink or pcie (default nvlink).
	Link string `json:"link,omitempty"`
	// Placement is the initial data placement: resident, paging or
	// lazy (default resident).
	Placement string `json:"placement,omitempty"`
	// Switching enables thread block switching on fault (use case 1).
	Switching bool `json:"switching,omitempty"`
	// Local handles allocation-only faults on the GPU (use case 2).
	Local bool `json:"local,omitempty"`
	// MaxCycles aborts the run with a stall report past this cycle
	// (0 = simulator default).
	MaxCycles int64 `json:"max_cycles,omitempty"`
}

// scale returns the effective dataset scale.
func (js JobSpec) scale() int {
	if js.Scale == 0 {
		return 1
	}
	return js.Scale
}

// Build materializes the simulator inputs. It validates every axis on
// the way: an unknown benchmark, scheme, link or placement fails here,
// at admission, not on a worker.
func (js JobSpec) Build() (config.Config, sim.LaunchSpec, error) {
	cfg := config.Default()
	if js.Scheme != "" {
		s, err := config.ParseScheme(js.Scheme)
		if err != nil {
			return cfg, sim.LaunchSpec{}, fmt.Errorf("simserv: %w", err)
		}
		cfg.Scheme = s
	}
	if js.Link != "" {
		l, err := config.ParseLink(js.Link)
		if err != nil {
			return cfg, sim.LaunchSpec{}, fmt.Errorf("simserv: %w", err)
		}
		cfg.Link = l
	}
	place := workloads.Resident()
	switch js.Placement {
	case "", "resident":
	case "paging":
		place = workloads.DemandPaging()
		cfg.DemandPaging = true
	case "lazy":
		place = workloads.LazyOutput()
	default:
		return cfg, sim.LaunchSpec{}, fmt.Errorf("simserv: unknown placement %q", js.Placement)
	}
	cfg.Scheduler.Enabled = js.Switching
	cfg.Local.Enabled = js.Local
	if js.MaxCycles > 0 {
		cfg.MaxCycles = js.MaxCycles
	}
	if js.scale() < 1 {
		return cfg, sim.LaunchSpec{}, fmt.Errorf("simserv: scale %d must be >= 1", js.Scale)
	}
	spec, err := workloads.Build(js.Benchmark, workloads.Params{Scale: js.scale(), Placement: place})
	if err != nil {
		return cfg, sim.LaunchSpec{}, err
	}
	return cfg, spec, nil
}

// Key returns the result-cache / singleflight key: the simulator's
// config and launch-spec fingerprints, the same pair a checkpoint is
// stamped with. Building the workload image is cheap next to
// simulating it; identical simulations always collide here even when
// their JobSpecs differ in spelling (e.g. "" vs "baseline").
func (js JobSpec) Key() (string, error) {
	cfg, spec, err := js.Build()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("cfg%016x-spec%016x", sim.FingerprintConfig(cfg), sim.FingerprintSpec(spec)), nil
}
