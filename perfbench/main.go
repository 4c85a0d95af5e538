// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed host time, checks every simulated statistic
// against the committed expected-results table, and prints the
// workload's metrics with their units. The last line of its output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go build -o perfbench . && cd .. && perfbench/perfbench -workload fault-runs -seed 3 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics (host time, with
// tracing off); with -trace 1 it reports per-layer metrics from a
// separate traced run, which times the calls into each layer from the
// benchmark's side. -update-expected regenerates the table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"gpues/internal/experiments"
)

// parallelism is the load the benchmark is sized for: at most two
// simulations run at once, all in one process.
const parallelism = 2

// setupPasses is how often a run repeats its set-up; it reports the
// median.
const setupPasses = 9

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // a few cells per workload, for smoke tests
	out      string // directory for the run record and spans
	tmp      string // directory for fabric journals
	root     string // repository root: the working directory, ".." in tests
}

// unitResult is one unit of a workload's work: a campaign, a fault-run
// sequence or a fabric session.
type unitResult struct {
	wall         float64
	jobs         int // completed within wall
	verified     int // completed and checked, including any after wall
	cycles       int64
	insts        int64
	latencies    []float64
	campaignDone []float64 // completion times within a campaign
}

// bench is the state of one benchmark run.
type bench struct {
	opt   options
	exp   *expectedTable
	cells cellSet
	pool  []cell
	tr    *tracer // nil while untraced

	attempted int
	failures  []string

	stepped     []steppedCell
	emuInsts    int64
	emuAllocMB  float64
	ckptBytes   []float64
	fabricRecs  []*sessionRec
	fig10Result *experiments.Result
	fab         *fabric
}

func (b *bench) fail(err error) {
	b.failures = append(b.failures, err.Error())
}

// workload is one named set of inputs.
type workload struct {
	name string
	// setupCells are the distinct cells whose set-up setup_s measures.
	setupCells func(cellSet) []cell
	// unit runs the i-th unit of work.
	unit func(b *bench, i int) unitResult
}

var workloadList = []workload{
	{
		name:       "fig10-campaign",
		setupCells: cellSet.fig10,
		unit:       (*bench).campaign,
	},
	{
		name:       "fault-runs",
		setupCells: cellSet.faults,
		unit:       (*bench).faultSequence,
	},
	{
		name:       "fabric",
		setupCells: cellSet.fabricPool,
		unit: func(b *bench, i int) unitResult {
			return b.fab.session(i)
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloadList {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func main() {
	var opt options
	var trace int
	var update string
	flag.StringVar(&opt.workload, "workload", "", "workload: fig10-campaign, fault-runs or fabric")
	flag.Int64Var(&opt.seed, "seed", 1, "seed for cell order and the fabric job mix")
	flag.Float64Var(&opt.seconds, "seconds", 20, "host seconds to measure for")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&opt.out, "out", ".bench_build/results", "directory for run records and spans")
	flag.StringVar(&opt.tmp, "tmp", ".bench_build/tmp", "directory for fabric journals")
	flag.StringVar(&update, "update-expected", "", "regenerate the expected-results table into this file and exit")
	flag.Parse()
	opt.trace = trace == 1
	opt.root = "."

	if update != "" {
		if err := writeExpected(update); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	exp, err := loadExpected()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(opt, exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := rep.write(os.Stdout, opt); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run.
func run(opt options, exp *expectedTable) (*report, error) {
	w, err := findWorkload(opt.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opt.tmp, 0o755); err != nil {
		return nil, err
	}
	b := &bench{opt: opt, exp: exp, cells: cellsFor(opt.tiny)}
	b.pool = b.cells.fabricPool()
	if w.name == "fabric" {
		if b.fab, err = b.startFabric(); err != nil {
			return nil, err
		}
		defer b.fab.close()
	}
	rep := &report{Workload: w.name, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace,
		Meta: hostMeta(opt.root), Samples: map[string][]float64{}}
	if opt.trace {
		b.traced(w, rep)
	} else if err := b.measure(w, rep); err != nil {
		return nil, err
	}
	rep.Attempted, rep.Failed, rep.Failures = b.attempted, len(b.failures), b.failures
	rep.Correct = len(b.failures) == 0 && b.attempted > 0
	rep.Notes = append(rep.Notes, b.fidelity(w.name)...)
	return rep, nil
}

// measure is the untraced run: set-up several times, then whole units
// of work until the time is spent.
func (b *bench) measure(w workload, rep *report) error {
	for i := 0; i < setupPasses; i++ {
		s, err := b.setup(w)
		if err != nil {
			return err
		}
		rep.Samples["setup_s"] = append(rep.Samples["setup_s"], s)
	}
	alloc0 := totalAllocMB()
	start := time.Now()
	var all unitResult
	for i := 0; i == 0 || time.Since(start).Seconds() < b.opt.seconds; i++ {
		u := w.unit(b, i)
		rep.Samples["unit_wall_s"] = append(rep.Samples["unit_wall_s"], u.wall)
		rep.Samples["unit_jobs"] = append(rep.Samples["unit_jobs"], float64(u.jobs))
		all.wall += u.wall
		all.jobs += u.jobs
		all.verified += u.verified
		all.cycles += u.cycles
		all.insts += u.insts
		all.latencies = append(all.latencies, u.latencies...)
	}
	allocMB := totalAllocMB() - alloc0
	rep.Samples["job_latency_s"] = all.latencies
	tailV, tailPct := tail(all.latencies)
	rep.TailPercentile, rep.TailSamples = tailPct, len(all.latencies)
	rep.Metrics = map[string]float64{
		"setup_s":            median(rep.Samples["setup_s"]),
		"warp_insts_per_s":   float64(all.insts) / all.wall,
		"sim_cycles_per_s":   float64(all.cycles) / all.wall,
		"jobs_per_s":         float64(all.jobs) / all.wall,
		"job_latency_s.p50":  median(all.latencies),
		"job_latency_s.tail": tailV,
		"peak_rss_mb":        peakRSSMB(),
		"alloc_mb":           allocMB / float64(max(all.verified, 1)),
	}
	rep.FailedFrac = float64(len(b.failures)) / float64(max(b.attempted, 1))
	return nil
}

// setup times one set-up pass: image builds and simulator construction
// for every distinct cell, plus opening a coordinator on a fresh journal
// for the fabric.
func (b *bench) setup(w workload) (float64, error) {
	s, err := setupPass(w.setupCells(b.cells))
	if err != nil || b.fab == nil {
		return s, err
	}
	dir := filepath.Join(b.opt.tmp, "setup-journal")
	os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	start := time.Now()
	if _, err := b.fab.open(dir); err != nil {
		return 0, err
	}
	return s + time.Since(start).Seconds(), nil
}

// fidelity reports how the campaign's geomeans compare with the paper.
func (b *bench) fidelity(name string) []string {
	if name != "fig10-campaign" {
		return []string{name + ": no per-cell reference for this workload in the repository"}
	}
	if b.fig10Result == nil || b.opt.tiny {
		return nil
	}
	return []string{fig10Fidelity(b.fig10Result, b.opt.root)}
}

// report is everything one run produced.
type report struct {
	Workload       string               `json:"workload"`
	Seed           int64                `json:"seed"`
	Seconds        float64              `json:"seconds"`
	Trace          bool                 `json:"trace"`
	Meta           meta                 `json:"meta"`
	Correct        bool                 `json:"correct"`
	Attempted      int                  `json:"attempted"`
	Failed         int                  `json:"failed"`
	FailedFrac     float64              `json:"failed_frac"`
	Failures       []string             `json:"failures,omitempty"`
	Metrics        map[string]float64   `json:"metrics"`
	Extra          map[string]float64   `json:"workload_layer_metrics,omitempty"`
	Counts         map[string]int64     `json:"work_counts,omitempty"`
	Layers         map[string]layerTime `json:"spans_by_name,omitempty"`
	TailPercentile float64              `json:"tail_percentile,omitempty"`
	TailSamples    int                  `json:"tail_samples,omitempty"`
	Samples        map[string][]float64 `json:"raw_samples"`
	Notes          []string             `json:"notes,omitempty"`
	spans          []span
}

// resultLine is the benchmark's last line of output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints the human report, stores the record (and spans) under
// opt.out, and ends with the result line.
func (r *report) write(w io.Writer, opt options) error {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  source %.12s  %s  GOMAXPROCS %d  nproc %d  %s\n",
		r.Workload, r.Seed, r.Trace, r.Meta.SourceDigest, r.Meta.GoVersion, r.Meta.GOMAXPROCS, r.Meta.NumCPU, r.Meta.CPUModel)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.6g %-6s %s\n", d.name, r.Metrics[d.name], d.unit, d.moves)
	}
	for _, k := range sortedKeys(r.Extra) {
		fmt.Fprintf(w, "  %-34s %14.6g %-6s %s\n", k, r.Extra[k], extraUnits[k].unit, extraUnits[k].moves)
	}
	if r.TailSamples > 0 {
		fmt.Fprintf(w, "  job_latency_s.tail is p%.1f of %d samples\n", r.TailPercentile, r.TailSamples)
	}
	fmt.Fprintf(w, "  failed_frac %.4g (%d of %d)\n", r.FailedFrac, r.Failed, r.Attempted)
	for _, n := range r.Notes {
		fmt.Fprintln(w, "  "+n)
	}
	for _, f := range r.Failures {
		fmt.Fprintln(w, "  FAILED: "+f)
	}

	samples, err := json.Marshal(r.Samples)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  raw samples: %s\n", samples)

	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(opt.out, fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Seed, btoi(r.Trace)))
	rec, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".json", rec, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "  record: %s.json\n", stem)
	if r.Trace {
		if err := writeSpans(stem+".spans.json", r.spans); err != nil {
			return err
		}
		fmt.Fprintf(w, "  spans: %s.spans.json (%d)\n", stem, len(r.spans))
	}

	line := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		line.Metrics[d.name] = metricValue{Value: r.Metrics[d.name], Unit: d.unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
