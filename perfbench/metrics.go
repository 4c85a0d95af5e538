package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"gpues/internal/experiments"
)

// metricDef names a metric, its unit and what it should move.
type metricDef struct {
	name  string
	unit  string
	moves string
}

// endToEnd are the metrics of an untraced run, reported for every
// workload. A job is what a user waits for: the figure on
// fig10-campaign, one simulation on fault-runs, one submission on
// fabric. Its latency runs from submission to the result being
// available, so on fault-runs, where jobs run one at a time, it is one
// simulation's host latency, and on fig10-campaign the campaign's wall
// time.
var endToEnd = []metricDef{
	{"setup_s", "s", "image builds + simulator construction (+ coordinator open on fabric), median of 9 passes"},
	{"warp_insts_per_s", "1/s", "committed warp instructions per host second"},
	{"sim_cycles_per_s", "1/s", "simulated cycles per host second"},
	{"jobs_per_s", "1/s", "jobs (campaigns, simulations, submissions) completed per host second"},
	{"job_latency_s.p50", "s", "submission to result"},
	{"job_latency_s.tail", "s", "submission to result, highest percentile with 10 samples beyond (max below 11 samples)"},
	{"peak_rss_mb", "MB", "resident-set high-water mark"},
	{"alloc_mb", "MB", "Go heap allocated per job"},
}

// perLayer are the metrics of a traced run, reported for every
// workload; moves names the end-to-end metric each should move and the
// workload it shows on.
var perLayer = []metricDef{
	{"workloads.build_s", "s", "-> setup_s, all (mean per call)"},
	{"sim.new_s", "s", "-> setup_s, all (mean per call)"},
	{"emu.s", "s", "-> warp_insts_per_s, alloc_mb on fig10-campaign (separate emulation pass)"},
	{"emu.warp_insts_per_s", "1/s", "-> warp_insts_per_s on fig10-campaign"},
	{"emu.alloc_mb", "MB", "-> alloc_mb on fig10-campaign"},
	{"sim.step_s", "s", "-> sim_cycles_per_s, job_latency_s on fault-runs; warp_insts_per_s on fig10-campaign (Start, StepTo slices and the finishing Run)"},
	{"sim.timing_s", "s", "-> sim_cycles_per_s, job_latency_s on fault-runs (step - emulation of the same blocks)"},
	{"sim.timing_ns_per_cycle", "ns", "-> sim_cycles_per_s on fault-runs"},
	{"sim.timing_ns_per_warp_inst", "ns", "-> warp_insts_per_s on fig10-campaign"},
	{"go.gc_cpu_frac", "frac", "-> every throughput metric, with alloc_mb, all"},
	{"ckpt.capture_s", "s", "-> job_latency_s.tail, jobs_per_s on fabric (mean per call)"},
	{"ckpt.encode_mb_per_s", "MB/s", "-> job_latency_s.tail, jobs_per_s on fabric"},
	{"ckpt.decode_mb_per_s", "MB/s", "-> job_latency_s.tail, jobs_per_s on fabric"},
	{"ckpt.bytes", "B", "-> job_latency_s.tail on fabric (mean per checkpoint)"},
	{"ckpt.restore_s", "s", "-> job_latency_s.tail on fabric (mean per call, includes replay)"},
	{"trace_overhead_frac", "frac", "traced against untraced wall time per job; trust layers only when small"},
	{"sm.committed", "count", "work count, must repeat exactly"},
	{"l2.hits", "count", "work count, must repeat exactly"},
	{"l2.misses", "count", "work count, must repeat exactly"},
	{"l2tlb.misses", "count", "work count, must repeat exactly"},
	{"fillunit.walks", "count", "work count, must repeat exactly"},
	{"dram.reads", "count", "work count, must repeat exactly"},
}

// extraUnits describes the per-layer metrics that exist on one workload
// only; they are printed and recorded but not part of the result line.
var extraUnits = map[string]metricDef{
	"experiments.tail_idle_s":   {unit: "s", moves: "-> warp_insts_per_s on fig10-campaign (last completions with idle workers)"},
	"simserv.submit_s.p50":      {unit: "s", moves: "-> job_latency_s.* on fabric"},
	"simserv.claim_s.p50":       {unit: "s", moves: "-> job_latency_s.*, jobs_per_s on fabric"},
	"simserv.renew_s.p50":       {unit: "s", moves: "-> jobs_per_s on fabric"},
	"simserv.complete_s.p50":    {unit: "s", moves: "-> job_latency_s.* on fabric"},
	"simserv.queue_wait_s.p50":  {unit: "s", moves: "-> job_latency_s.p50 on fabric"},
	"simserv.queue_wait_s.tail": {unit: "s", moves: "-> job_latency_s.tail on fabric"},
	"simserv.lease_s.p50":       {unit: "s", moves: "-> job_latency_s.*, jobs_per_s on fabric"},
	"simserv.cache_hit_frac":    {unit: "frac", moves: "-> jobs_per_s on fabric"},
	"simserv.renews":            {unit: "count", moves: "-> jobs_per_s on fabric"},
	"simserv.retries":           {unit: "count", moves: "-> jobs_per_s on fabric"},
	"simserv.preempts":          {unit: "count", moves: "-> job_latency_s.tail on fabric"},
}

// layerCells is the set a traced run steps through for its per-layer
// numbers, beyond the traced unit itself.
func (b *bench) layerCells(name string) []cell {
	switch name {
	case "fig10-campaign":
		return b.cells.fig10()
	case "fabric":
		var out []cell
		for i, c := range b.pool {
			if i%4 == 0 {
				out = append(out, c)
			}
		}
		return out
	}
	return nil // fault-runs: the traced sequence already steps every cell
}

// traced is the traced run: one unit untraced as the reference, the
// same unit traced, then the layer, emulation and checkpoint passes.
func (b *bench) traced(w workload, rep *report) {
	// Two units run where the untraced run measures one; a time-bound
	// unit (the fabric session) gets half the time each.
	b.opt.seconds /= 2
	ref := w.unit(b, 0)
	b.fabricRecs = nil
	b.tr = newTracer()
	gc0, cpu0 := cpuSeconds()
	u := w.unit(b, 0)
	for _, c := range b.layerCells(w.name) {
		b.checkedCell(c, "layer/"+cellKey(c), 0)
	}
	b.emuPass()
	b.ckptPass()
	gc1, cpu1 := cpuSeconds()
	spans := b.tr.snapshot()
	lt := byName(spans)

	m := map[string]float64{}
	perCall := func(name string) float64 {
		if lt[name].Count == 0 {
			return 0
		}
		return lt[name].Total / float64(lt[name].Count)
	}
	m["workloads.build_s"] = perCall("workloads.build")
	m["sim.new_s"] = perCall("sim.new")
	emuS := lt["emu.new"].Total + lt["emu.blocks"].Total
	m["emu.s"] = emuS
	m["emu.warp_insts_per_s"] = float64(b.emuInsts) / emuS
	m["emu.alloc_mb"] = b.emuAllocMB
	// sim.run spans the whole run loop; the emulation inside it is what
	// the separate pass timed in EmulateBlock (emu.New runs in sim.New).
	stepS := lt["sim.run"].Total
	timing := stepS - lt["emu.blocks"].Total
	var cycles, insts int64
	counts := map[string]int64{}
	for _, sc := range b.stepped {
		cycles += sc.res.Cycles
		insts += sc.res.Committed
		for k, v := range sc.res.Metrics.Counters {
			counts[k] += v
		}
		for k, v := range sc.res.Metrics.Gauges {
			counts[k] += v
		}
	}
	m["sim.step_s"] = stepS
	m["sim.timing_s"] = timing
	m["sim.timing_ns_per_cycle"] = timing / float64(cycles) * 1e9
	m["sim.timing_ns_per_warp_inst"] = timing / float64(insts) * 1e9
	if cpu1 > cpu0 {
		m["go.gc_cpu_frac"] = (gc1 - gc0) / (cpu1 - cpu0)
	}
	ckMB := sum(b.ckptBytes) / 1e6
	m["ckpt.capture_s"] = perCall("ckpt.capture")
	m["ckpt.encode_mb_per_s"] = ckMB / lt["ckpt.encode"].Total
	m["ckpt.decode_mb_per_s"] = ckMB / lt["ckpt.decode"].Total
	m["ckpt.bytes"] = mean(b.ckptBytes)
	m["ckpt.restore_s"] = perCall("sim.restore")
	if ref.jobs > 0 && u.jobs > 0 {
		m["trace_overhead_frac"] = (u.wall/float64(u.jobs))/(ref.wall/float64(ref.jobs)) - 1
	}
	for _, d := range perLayer {
		if d.unit == "count" {
			m[d.name] = float64(counts[d.name])
		}
	}
	rep.Metrics = m
	rep.Counts = counts
	rep.Layers = lt
	rep.spans = spans
	rep.Samples["reference_unit_wall_s"] = []float64{ref.wall}
	rep.Samples["traced_unit_wall_s"] = []float64{u.wall}
	rep.Samples["ckpt_bytes"] = b.ckptBytes

	rep.Extra = map[string]float64{}
	switch w.name {
	case "fig10-campaign":
		done := append([]float64(nil), u.campaignDone...)
		sort.Float64s(done)
		rep.Samples["campaign_completion_s"] = done
		if n := len(done); n >= parallelism {
			rep.Extra["experiments.tail_idle_s"] = done[n-1] - done[n-parallelism]
		}
	case "fabric":
		rep.Extra = fabricLayers(b.fabricRecs)
	}
	rep.FailedFrac = float64(len(b.failures)) / float64(max(b.attempted, 1))
}

// paperFig10 is the paper's Figure 10 geomean for each scheme.
var paperFig10 = []struct {
	col   string
	paper float64
}{{"wd-commit", 84}, {"wd-lastcheck", 90}, {"replay-queue", 94}}

// fig10Fidelity prints the campaign's geomeans beside the paper's and
// beside what EXPERIMENTS.md states for them.
func fig10Fidelity(res *experiments.Result, root string) string {
	doc, _ := os.ReadFile(filepath.Join(root, "EXPERIMENTS.md"))
	var parts []string
	agree := len(doc) > 0
	for _, p := range paperFig10 {
		got := 100 * res.Geomean[p.col]
		parts = append(parts, fmt.Sprintf("%s %.1f%% (paper %.0f%%, error %+.1f pts)", p.col, got, p.paper, got-p.paper))
		re := regexp.MustCompile(`\| geomean, ` + regexp.QuoteMeta(p.col) + ` \| [^|]*\| \*\*([0-9.]+)%\*\*`)
		m := re.FindSubmatch(doc)
		if m == nil {
			agree = false
			continue
		}
		stated, err := strconv.ParseFloat(string(m[1]), 64)
		if err != nil || math.Abs(stated-got) > 0.05 {
			agree = false
		}
	}
	verdict := "matches EXPERIMENTS.md"
	if !agree {
		verdict = "DIFFERS from EXPERIMENTS.md"
	}
	return "fig10 fidelity: " + strings.Join(parts, ", ") + "; " + verdict
}
