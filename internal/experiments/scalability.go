package experiments

import (
	"fmt"

	"gpues/internal/config"
	"gpues/internal/workloads"
)

// This file implements the Section 5.5 scalability discussion as
// experiments: how the scheme costs and the two use cases respond to
// the number of SMs — and the ablation sweeps over the design
// parameters DESIGN.md calls out (switch threshold, extra block budget,
// handler concurrency, fault handling granularity).

// smCounts are the GPU sizes swept by the scalability experiments.
var smCounts = []int{4, 8, 16, 32}

// SchemeScalability measures the performance of the preemptible schemes
// relative to the baseline as the GPU grows, on a fixed-size workload.
// Section 5.5: when the workload does not scale with the GPU (occupancy
// drops), the gap between the schemes widens.
func SchemeScalability(opt Options) (*Result, error) {
	opt = opt.normalize()
	bench := "lbm" // the scheme-sensitive benchmark
	if len(opt.Benchmarks) == 1 {
		bench = opt.Benchmarks[0]
	}
	schemes := []config.Scheme{
		config.Baseline, config.WarpDisableCommit,
		config.WarpDisableLastCheck, config.ReplayQueue,
	}
	var jobs []runJob
	for _, sms := range smCounts {
		for _, s := range schemes {
			cfg := config.Default()
			cfg.System.NumSMs = sms
			cfg.Scheme = s
			jobs = append(jobs, runJob{
				bench:     fmt.Sprintf("%d-SMs", sms),
				realBench: bench,
				col:       s.String(),
				cfg:       cfg,
				place:     workloads.Resident(),
			})
		}
	}
	cycles, err := runAll(opt, "scal-schemes", jobs)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:      "scal-schemes",
		Title:   fmt.Sprintf("Scheme cost vs. GPU size (%s, fixed dataset)", bench),
		Metric:  "normalized to baseline at the same SM count, higher is better",
		Columns: []string{"wd-commit", "wd-lastcheck", "replay-queue"},
		Geomean: map[string]float64{},
	}
	for _, sms := range smCounts {
		label := fmt.Sprintf("%d-SMs", sms)
		row := Row{Benchmark: label, Values: map[string]float64{}}
		base := cycles[label]["baseline"]
		for _, c := range res.Columns {
			if v := cycles[label][c]; v > 0 && base > 0 {
				row.Values[c] = float64(base) / float64(v)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	for _, c := range res.Columns {
		res.Geomean[c] = geomean(res.Rows, c)
	}
	return res, nil
}

// LocalHandlingScalability measures use case 2's speedup as the GPU
// grows. Section 5.5: local handling improves with the number of SMs,
// because it decreases the contention of the CPU and the interconnect.
func LocalHandlingScalability(opt Options) (*Result, error) {
	opt = opt.normalize()
	bench := "halloc-spree"
	if len(opt.Benchmarks) == 1 {
		bench = opt.Benchmarks[0]
	}
	var jobs []runJob
	for _, sms := range smCounts {
		cpu := config.Default()
		cpu.System.NumSMs = sms
		cpu.Scheme = config.ReplayQueue
		label := fmt.Sprintf("%d-SMs", sms)
		jobs = append(jobs, runJob{bench: label, realBench: bench, col: "cpu", cfg: cpu, place: workloads.LazyOutput()})
		gpu := cpu
		gpu.Local.Enabled = true
		jobs = append(jobs, runJob{bench: label, realBench: bench, col: "gpu-local", cfg: gpu, place: workloads.LazyOutput()})
	}
	cycles, err := runAll(opt, "scal-local", jobs)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:      "scal-local",
		Title:   fmt.Sprintf("Local fault handling vs. GPU size (%s)", bench),
		Metric:  "speedup of GPU-local over CPU handling, higher is better",
		Columns: []string{"speedup"},
		Geomean: map[string]float64{},
	}
	for _, sms := range smCounts {
		label := fmt.Sprintf("%d-SMs", sms)
		row := Row{Benchmark: label, Values: map[string]float64{}}
		if c, g := cycles[label]["cpu"], cycles[label]["gpu-local"]; c > 0 && g > 0 {
			row.Values["speedup"] = float64(c) / float64(g)
		}
		res.Rows = append(res.Rows, row)
	}
	res.Geomean["speedup"] = geomean(res.Rows, "speedup")
	return res, nil
}

// Ablations runs the design-parameter sweeps: each Result isolates one
// knob of the paper's mechanisms.
func Ablations(opt Options) ([]*Result, error) {
	opt = opt.normalize()
	var out []*Result

	// 1. Switch threshold (use case 1): how aggressive should the local
	// scheduler be about switching on a queued fault?
	thr, err := sweep(opt, "switch-threshold",
		"Block switching threshold (sgemm, demand paging, NVLink)",
		"speedup over no-switching", "sgemm", workloads.DemandPaging(),
		[]int{0, 1, 2, 4},
		func(cfg *config.Config, v int) {
			cfg.Scheme = config.ReplayQueue
			cfg.DemandPaging = true
			cfg.Scheduler.Enabled = true
			cfg.Scheduler.SwitchThreshold = v
		},
		func(cfg *config.Config) {
			cfg.Scheme = config.ReplayQueue
			cfg.DemandPaging = true
		})
	if err != nil {
		return nil, err
	}
	out = append(out, thr)

	// 2. Extra block budget (use case 1): the paper allows 4 off-chip
	// blocks per SM.
	extra, err := sweep(opt, "extra-blocks",
		"Extra off-chip blocks per SM (sgemm, demand paging, NVLink)",
		"speedup over no-switching", "sgemm", workloads.DemandPaging(),
		[]int{1, 2, 4, 8},
		func(cfg *config.Config, v int) {
			cfg.Scheme = config.ReplayQueue
			cfg.DemandPaging = true
			cfg.Scheduler.Enabled = true
			cfg.Scheduler.MaxExtraBlocks = v
		},
		func(cfg *config.Config) {
			cfg.Scheme = config.ReplayQueue
			cfg.DemandPaging = true
		})
	if err != nil {
		return nil, err
	}
	out = append(out, extra)

	// 3. GPU handler concurrency (use case 2): how much parallelism the
	// system-level synchronization permits.
	conc, err := sweep(opt, "handler-concurrency",
		"GPU-local handler concurrency (halloc-spree, lazy heap, NVLink)",
		"speedup over CPU handling", "halloc-spree", workloads.LazyOutput(),
		[]int{1, 2, 3, 4, 8},
		func(cfg *config.Config, v int) {
			cfg.Scheme = config.ReplayQueue
			cfg.Local.Enabled = true
			cfg.Local.Concurrency = v
		},
		func(cfg *config.Config) {
			cfg.Scheme = config.ReplayQueue
		})
	if err != nil {
		return nil, err
	}
	out = append(out, conc)

	// 4. Fault handling granularity (Section 5.1 fixes 64 KB): the
	// prefetch-vs-overfetch trade-off of region size.
	gran, err := sweep(opt, "fault-granularity",
		"Fault handling granularity in KB (stencil, demand paging, NVLink)",
		"speedup over 64 KB handling", "stencil", workloads.DemandPaging(),
		[]int{16, 64, 256},
		func(cfg *config.Config, v int) {
			cfg.Scheme = config.ReplayQueue
			cfg.DemandPaging = true
			cfg.System.FaultGranularity = v * 1024
		},
		nil)
	if err != nil {
		return nil, err
	}
	// Normalize granularity rows to the 64 KB row instead of a base run.
	if base := findRow(gran, "64"); base > 0 {
		for i := range gran.Rows {
			gran.Rows[i].Values["speedup"] = base / gran.Rows[i].Values["cycles"]
			delete(gran.Rows[i].Values, "cycles")
		}
		gran.Columns = []string{"speedup"}
		gran.Geomean = map[string]float64{"speedup": geomean(gran.Rows, "speedup")}
	}
	out = append(out, gran)
	return out, nil
}

func findRow(r *Result, label string) float64 {
	for _, row := range r.Rows {
		if row.Benchmark == label {
			return row.Values["cycles"]
		}
	}
	return 0
}

// sweep runs `bench` once per value (plus one base run when baseMut is
// set) and returns speedups vs. the base, or raw cycles when baseMut is
// nil.
func sweep(opt Options, id, title, metric, bench string, place workloads.Placement,
	values []int, mut func(*config.Config, int), baseMut func(*config.Config)) (*Result, error) {
	var jobs []runJob
	for _, v := range values {
		cfg := config.Default()
		mut(&cfg, v)
		jobs = append(jobs, runJob{
			bench:     fmt.Sprintf("%d", v),
			realBench: bench,
			col:       "run",
			cfg:       cfg,
			place:     place,
		})
	}
	if baseMut != nil {
		cfg := config.Default()
		baseMut(&cfg)
		jobs = append(jobs, runJob{bench: "base", realBench: bench, col: "run", cfg: cfg, place: place})
	}
	cycles, err := runAll(opt, id, jobs)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:      id,
		Title:   title,
		Metric:  metric,
		Geomean: map[string]float64{},
	}
	if baseMut != nil {
		res.Columns = []string{"speedup"}
		base := cycles["base"]["run"]
		for _, v := range values {
			label := fmt.Sprintf("%d", v)
			row := Row{Benchmark: label, Values: map[string]float64{}}
			if c := cycles[label]["run"]; c > 0 && base > 0 {
				row.Values["speedup"] = float64(base) / float64(c)
			}
			res.Rows = append(res.Rows, row)
		}
		res.Geomean["speedup"] = geomean(res.Rows, "speedup")
	} else {
		res.Columns = []string{"cycles"}
		for _, v := range values {
			label := fmt.Sprintf("%d", v)
			row := Row{Benchmark: label, Values: map[string]float64{}}
			row.Values["cycles"] = float64(cycles[label]["run"])
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}
