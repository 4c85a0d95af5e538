package experiments

import (
	"fmt"
	"hash/fnv"

	"gpues/internal/chaos"
	"gpues/internal/config"
	"gpues/internal/workloads"
)

// chaosLevel is the preset injection aggressiveness of the sweep:
// level 2 adds transient walk faults and issue back-pressure on top of
// timing noise without degenerating into a pure fault storm.
const chaosLevel = 2

// chaosSeed derives a stable per-cell seed so the sweep is reproducible
// run to run.
func chaosSeed(bench, col string) int64 {
	h := fnv.New64a()
	h.Write([]byte(bench))
	h.Write([]byte{0})
	h.Write([]byte(col))
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// Chaos sweeps the preemptible schemes under deterministic fault
// injection: each benchmark runs demand paging with block switching,
// once clean and once under a level-2 chaos plan. The reported metric
// is the chaos run's slowdown over the clean run; every chaos run is
// checked against the functional oracle and the structural invariants,
// so the sweep doubles as a restartability regression test.
func Chaos(opt Options) (*Result, error) {
	opt = opt.normalize()
	benches := opt.parboil()
	schemes := []config.Scheme{
		config.WarpDisableCommit, config.WarpDisableLastCheck,
		config.ReplayQueue, config.OperandLog,
	}

	var jobs []runJob
	for _, bench := range benches {
		for _, scheme := range schemes {
			cfg := config.Default()
			cfg.Scheme = scheme
			cfg.DemandPaging = true
			cfg.Scheduler.Enabled = true
			plan, err := chaos.ForLevel(chaosLevel, chaosSeed(bench, scheme.String()))
			if err != nil {
				return nil, err
			}
			// The oracle check needs the full memory trajectory, so each
			// half is one whole job.
			clean := runJob{bench: bench, col: scheme.String() + "-clean", cfg: cfg,
				place: workloads.DemandPaging(), kind: chaosJob}
			stormy := clean
			stormy.col, stormy.plan = scheme.String()+"-chaos", plan
			jobs = append(jobs, clean, stormy)
		}
	}
	recs, err := runJobs(opt, "chaos", jobs, newStreamTable(jobs))
	if err != nil {
		return nil, err
	}
	values := make(map[string]map[string]float64)
	for i := 0; i < len(jobs); i += 2 { // a clean half, then its chaos half
		j := jobs[i]
		if values[j.bench] == nil {
			values[j.bench] = make(map[string]float64)
		}
		values[j.bench][j.cfg.Scheme.String()] = float64(recs[i+1].Cycles) / float64(recs[i].Cycles)
	}

	res := &Result{
		ID:      "chaos",
		Title:   fmt.Sprintf("Slowdown under level-%d deterministic fault injection (oracle-checked)", chaosLevel),
		Metric:  "chaos cycles / clean cycles, lower is better",
		Geomean: map[string]float64{},
	}
	for _, s := range schemes {
		res.Columns = append(res.Columns, s.String())
	}
	for _, bench := range benches {
		res.Rows = append(res.Rows, Row{Benchmark: bench, Values: values[bench]})
	}
	for _, c := range res.Columns {
		res.Geomean[c] = geomean(res.Rows, c)
	}
	return res, nil
}
