// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5): the fault-free cost of the exception schemes
// (Figures 10 and 11), the operand log overheads (Table 2), thread
// block switching under demand paging (Figure 12) and GPU-local fault
// handling (Figures 13 and 14). Table 1 is the configuration itself.
package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"gpues/internal/atomicio"
	"gpues/internal/config"
	"gpues/internal/excep"
	"gpues/internal/obs"
	"gpues/internal/sim"
	"gpues/internal/workloads"
)

// Options configures an experiment run.
type Options struct {
	// Scale is the workload dataset scale (1 = small/CI, 2-4 = paper
	// runs).
	Scale int
	// Benchmarks restricts the benchmark set (nil = the figure's full
	// suite).
	Benchmarks []string
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// Workers is the tick-phase worker-goroutine count inside each
	// simulation (config.Config.Workers; 0 or 1 = sequential). Results
	// are bit-identical at any worker count, so this is purely a
	// wall-clock knob; it composes with Parallelism (inter-simulation).
	Workers int
	// Progress, when set, receives one line per completed run. Calls
	// are serialized (one at a time, across Progress and
	// CampaignProgress), so the callback needs no lock of its own.
	Progress func(string)
	// TraceDir, when set, writes one Chrome trace JSON per simulation
	// into the directory as <bench>-<column>.trace.json.
	TraceDir string
	// TraceFilter selects the traced event kinds (obs.ParseFilter
	// syntax; empty records everything).
	TraceFilter string
	// ResumeDir, when set, makes the campaign crash-recoverable:
	// finished runs record their cycle counts as
	// <fig>-<bench>-<col>.done.json (skipped on the next invocation),
	// and in-flight runs checkpoint periodically into
	// <fig>-<bench>-<col>.ckpts and resume from the latest checkpoint.
	// The chaos sweep resumes at cell granularity only: its oracle
	// check needs the full run's memory trajectory, so each clean or
	// chaos run executes whole, but finished halves record done-files
	// (as chaos-<bench>-<scheme>-{clean,chaos}.done.json) and are
	// skipped when a killed sweep is re-invoked.
	ResumeDir string
	// CheckpointEvery is the in-flight checkpoint period in cycles when
	// ResumeDir is set (0 = a sensible default).
	CheckpointEvery int64
	// Trials is the seeded trial count per resilience-campaign cell
	// (0 = the campaign default; other sweeps ignore it).
	Trials int
	// FlipSeed, when non-zero, pins the resilience campaign's base seed
	// for every cell (CI pinning); 0 derives a stable one per cell.
	FlipSeed int64
	// FlipRate, when positive, overrides the resilience campaign's flip
	// probability.
	FlipRate float64
	// ProtectPin, when set, replaces the resilience campaign's
	// protection ladder with the single absolute per-block thread count
	// in ProtectThreads.
	ProtectPin     bool
	ProtectThreads int
	// ExcepMode is the exception delivery mode during resilience trials
	// (the zero value is precise; preemptible switches trials to the
	// replay-queue scheme).
	ExcepMode excep.Mode
	// SampleEvery, when positive, enables metric sampling inside every
	// simulation (config.Config.SampleEvery). Purely observational:
	// sampled campaigns report the same cycle counts as unsampled ones.
	SampleEvery int64
	// CampaignProgress, when set, receives (done, total, line) after
	// every finished unit of campaign work — one simulation for the
	// figure campaigns, one trial for the resilience campaign, one
	// clean/chaos half for the chaos sweep. The live introspection
	// server's SetCampaign has exactly this shape. Calls are serialized
	// with Progress's, so the callback needs no lock of its own.
	CampaignProgress func(done, total int, last string)
}

// defaultCheckpointEvery is the in-flight checkpoint period when
// Options.ResumeDir is set without an explicit CheckpointEvery.
const defaultCheckpointEvery = 100_000

func (o Options) checkpointEvery() int64 {
	if o.CheckpointEvery > 0 {
		return o.CheckpointEvery
	}
	return defaultCheckpointEvery
}

// campaignStep reports one finished unit of campaign work to the
// CampaignProgress hook; done is the campaign-wide atomic counter the
// concurrent workers share.
func (o Options) campaignStep(done *atomic.Int64, total int, last string) {
	if o.CampaignProgress == nil {
		return
	}
	o.CampaignProgress(int(done.Add(1)), total, last)
}

func (o Options) normalize() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	// Campaign workers report concurrently; one lock serializes both
	// callbacks so callers can keep unsynchronized state in them.
	mu := new(sync.Mutex)
	if p := o.Progress; p != nil {
		o.Progress = func(line string) {
			mu.Lock()
			defer mu.Unlock()
			p(line)
		}
	}
	if p := o.CampaignProgress; p != nil {
		o.CampaignProgress = func(done, total int, last string) {
			mu.Lock()
			defer mu.Unlock()
			p(done, total, last)
		}
	}
	return o
}

// Result is one regenerated table or figure: rows are benchmarks,
// columns are configurations, values are the figure's metric
// (normalized performance or speedup).
type Result struct {
	ID      string
	Title   string
	Metric  string
	Columns []string
	Rows    []Row
	// Geomean per column, as the paper reports.
	Geomean map[string]float64
}

// Row is one benchmark's results.
type Row struct {
	Benchmark string
	Values    map[string]float64
}

// String renders the result as an aligned text table.
func (r *Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s (%s)\n", r.ID, r.Title, r.Metric)
	fmt.Fprintf(&sb, "%-14s", "benchmark")
	for _, c := range r.Columns {
		fmt.Fprintf(&sb, " %12s", c)
	}
	sb.WriteByte('\n')
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-14s", row.Benchmark)
		for _, c := range r.Columns {
			fmt.Fprintf(&sb, " %12.3f", row.Values[c])
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%-14s", "geomean")
	for _, c := range r.Columns {
		fmt.Fprintf(&sb, " %12.3f", r.Geomean[c])
	}
	sb.WriteByte('\n')
	return sb.String()
}

// geomean computes the geometric mean of the column across rows.
func geomean(rows []Row, col string) float64 {
	logSum, n := 0.0, 0
	for _, r := range rows {
		v := r.Values[col]
		if v > 0 {
			logSum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// runJob identifies one simulation. bench doubles as the result row
// label; realBench, when set, is the workload actually built (used by
// the scalability/ablation sweeps whose rows are parameters, not
// benchmarks).
type runJob struct {
	bench     string
	realBench string
	col       string
	cfg       config.Config
	place     workloads.Placement
}

// buildSpec builds the job's workload afresh (runs mutate the
// functional memory, so every attempt needs its own image).
func buildSpec(opt Options, j runJob) (sim.LaunchSpec, error) {
	name := j.bench
	if j.realBench != "" {
		name = j.realBench
	}
	return workloads.Build(name, workloads.Params{Scale: opt.Scale, Placement: j.place})
}

// streamGroup identifies the jobs whose simulations can time one shared
// trace stream: the same workload image (a build is a deterministic
// function of the name, scale and placement) under the same emulation
// config. sim.NewFromStream checks the full stream key.
type streamGroup struct {
	name  string
	place workloads.Placement
	flip  excep.FlipConfig
	lineB int
}

func (j runJob) streamGroup() streamGroup {
	name := j.bench
	if j.realBench != "" {
		name = j.realBench
	}
	return streamGroup{name: name, place: j.place, flip: j.cfg.Excep.Flip, lineB: j.cfg.SM.L1LineB}
}

// streamTable hands out one shared trace stream per group of a
// campaign's jobs. The group's first job to simulate opens it and the
// group's last job to finish drops it, so a stream lives only while
// its group's jobs are running or queued next.
type streamTable struct {
	mu      sync.Mutex
	pending map[streamGroup]int // jobs of the group not yet finished
	open    map[streamGroup]*sim.Stream
}

func newStreamTable(jobs []runJob) *streamTable {
	t := &streamTable{pending: map[streamGroup]int{}, open: map[streamGroup]*sim.Stream{}}
	for _, j := range jobs {
		t.pending[j.streamGroup()]++
	}
	return t
}

// newSim builds the job's simulator over spec, a fresh build of the
// group's image.
func (t *streamTable) newSim(j runJob, spec sim.LaunchSpec) (*sim.Simulator, error) {
	st, err := t.stream(j.streamGroup(), j.cfg, spec)
	if err != nil {
		return nil, err
	}
	if st == nil {
		return sim.New(j.cfg, spec)
	}
	return sim.NewFromStream(j.cfg, spec, st)
}

// stream returns the group's shared stream, opening it over spec if no
// job of the group has yet. It returns nil for a job that is the only
// one left in its group: a shared stream would only keep its traces.
func (t *streamTable) stream(g streamGroup, cfg config.Config, spec sim.LaunchSpec) (*sim.Stream, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.open[g]; st != nil || t.pending[g] <= 1 {
		return st, nil
	}
	st, err := sim.NewStream(cfg, spec)
	if err != nil {
		return nil, err
	}
	t.open[g] = st
	return st, nil
}

// finish records that one of the group's jobs is done; the last one
// drops the group's stream.
func (t *streamTable) finish(j runJob) {
	g := j.streamGroup()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pending[g]--; t.pending[g] > 0 {
		return
	}
	delete(t.open, g)
}

// live returns the number of open streams.
func (t *streamTable) live() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.open)
}

// takeOrder is the order campaign workers take jobs in: list order,
// except that each stream group's first job is pulled forward to run
// beside the previous group's remaining jobs. A group's first job
// emulates its stream; running it next to another group's jobs, whose
// traces are already emulated, keeps two workers from queueing on one
// stream's emulation, while at most about two groups' streams are live
// at a time.
func takeOrder(jobs []runJob) []int {
	var groups [][]int
	index := map[streamGroup]int{}
	for i, j := range jobs {
		g := j.streamGroup()
		k, ok := index[g]
		if !ok {
			k = len(groups)
			index[g] = k
			groups = append(groups, nil)
		}
		groups[k] = append(groups[k], i)
	}
	order := make([]int, 0, len(jobs))
	for k, g := range groups {
		order = append(order, g[0])
		if k > 0 {
			order = append(order, groups[k-1][1:]...)
		}
	}
	if n := len(groups); n > 0 {
		order = append(order, groups[n-1][1:]...)
	}
	return order
}

// runOne runs one job, attaching a tracer and/or in-flight
// checkpointing as the options ask.
func runOne(opt Options, fig string, j runJob, streams *streamTable) (*sim.Result, error) {
	if opt.Workers > 1 {
		j.cfg.Workers = opt.Workers
	}
	if opt.SampleEvery > 0 {
		j.cfg.SampleEvery = opt.SampleEvery
	}
	spec, err := buildSpec(opt, j)
	if err != nil {
		return nil, err
	}
	if opt.TraceDir == "" && opt.ResumeDir == "" {
		s, err := streams.newSim(j, spec)
		if err != nil {
			return nil, err
		}
		return s.Run()
	}
	var mask uint64
	if opt.TraceDir != "" {
		if mask, err = obs.ParseFilter(opt.TraceFilter); err != nil {
			return nil, err
		}
	}
	wire := func(spec sim.LaunchSpec) (*sim.Simulator, *obs.Tracer, error) {
		s, err := streams.newSim(j, spec)
		if err != nil {
			return nil, nil, err
		}
		var tr *obs.Tracer
		if opt.TraceDir != "" {
			tr = obs.New(obs.Options{Filter: mask})
			s.AttachTracer(tr)
		}
		if opt.ResumeDir != "" {
			s.CheckpointEvery = opt.checkpointEvery()
			s.CheckpointDir = jobCheckpointDir(opt.ResumeDir, fig, j)
		}
		return s, tr, nil
	}
	s, tr, err := wire(spec)
	if err != nil {
		return nil, err
	}
	if opt.ResumeDir != "" {
		if path, rerr := sim.ResolveCheckpoint(s.CheckpointDir); rerr == nil {
			if rerr := s.RestoreFile(path); rerr != nil {
				// Stale or incompatible checkpoint (changed config,
				// scale, or binary): discard it and run from scratch on
				// a fresh simulator and memory image.
				if opt.Progress != nil {
					opt.Progress(fmt.Sprintf("%s/%s: discarding checkpoint: %v", j.bench, j.col, rerr))
				}
				if spec, err = buildSpec(opt, j); err != nil {
					return nil, err
				}
				if s, tr, err = wire(spec); err != nil {
					return nil, err
				}
			}
		}
	}
	r, runErr := s.Run()
	if opt.TraceDir != "" {
		// Export even when the run failed — a failed run's trace is the
		// most useful one. The run error still wins the return.
		path := filepath.Join(opt.TraceDir, fmt.Sprintf("%s-%s.trace.json", j.bench, j.col))
		werr := func() error {
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			err = tr.WriteChrome(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			return err
		}()
		if runErr == nil && werr != nil {
			return nil, werr
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	return r, nil
}

// doneRecord is the crash-recovery marker of one finished run.
type doneRecord struct {
	Fig    string `json:"fig"`
	Bench  string `json:"bench"`
	Col    string `json:"col"`
	Scale  int    `json:"scale"`
	Cycles int64  `json:"cycles"`
}

// jobKey is the per-run file stem inside ResumeDir.
func jobKey(fig string, j runJob) string {
	return fmt.Sprintf("%s-%s-%s", fig, j.bench, j.col)
}

func doneFilePath(dir, fig string, j runJob) string {
	return filepath.Join(dir, jobKey(fig, j)+".done.json")
}

func jobCheckpointDir(dir, fig string, j runJob) string {
	return filepath.Join(dir, jobKey(fig, j)+".ckpts")
}

// readDone returns a prior invocation's cycle count for the job, if a
// matching done-file exists. Torn or malformed files read as absent,
// so the job simply reruns.
func readDone(opt Options, fig string, j runJob) (int64, bool) {
	var d doneRecord
	if atomicio.ReadJSON(doneFilePath(opt.ResumeDir, fig, j), &d) != nil {
		return 0, false
	}
	if d.Fig != fig || d.Bench != j.bench || d.Col != j.col || d.Scale != opt.Scale {
		return 0, false
	}
	return d.Cycles, true
}

// writeDone atomically records a finished run (atomicio tmp+rename) and
// drops its now-useless in-flight checkpoints.
func writeDone(opt Options, fig string, j runJob, cycles int64) error {
	d := doneRecord{Fig: fig, Bench: j.bench, Col: j.col, Scale: opt.Scale, Cycles: cycles}
	if err := atomicio.WriteJSON(doneFilePath(opt.ResumeDir, fig, j), d); err != nil {
		return err
	}
	os.RemoveAll(jobCheckpointDir(opt.ResumeDir, fig, j))
	return nil
}

// runAll executes the figure's jobs and returns cycles[bench][col].
// Jobs that build the same image share one trace stream (see
// streamTable), so a figure's schemes time a single emulation of each
// workload; Options.Parallelism workers take the jobs in takeOrder.
// With Options.ResumeDir set, jobs already recorded as done are skipped
// and finishing jobs are recorded, so a killed campaign re-invoked with
// the same options continues where it stopped.
func runAll(opt Options, fig string, jobs []runJob) (map[string]map[string]int64, error) {
	return runJobs(opt, fig, jobs, newStreamTable(jobs))
}

// runJobs is runAll over a given stream table.
func runJobs(opt Options, fig string, jobs []runJob, streams *streamTable) (map[string]map[string]int64, error) {
	type out struct {
		cycles int64
		err    error
	}
	outs := make([]out, len(jobs))
	var next, done atomic.Int64
	total := len(jobs)
	run := func(j runJob) (int64, error) {
		if opt.ResumeDir != "" {
			if cycles, ok := readDone(opt, fig, j); ok {
				line := fmt.Sprintf("%-14s %-14s %12d cycles (done, skipped)", j.bench, j.col, cycles)
				if opt.Progress != nil {
					opt.Progress(line)
				}
				opt.campaignStep(&done, total, line)
				return cycles, nil
			}
		}
		r, err := runOne(opt, fig, j, streams)
		if err != nil {
			return 0, fmt.Errorf("%s/%s: %w", j.bench, j.col, err)
		}
		if opt.ResumeDir != "" {
			if err := writeDone(opt, fig, j, r.Cycles); err != nil {
				return 0, fmt.Errorf("%s/%s: recording completion: %w", j.bench, j.col, err)
			}
		}
		line := fmt.Sprintf("%-14s %-14s %12d cycles", j.bench, j.col, r.Cycles)
		if opt.Progress != nil {
			opt.Progress(line)
		}
		opt.campaignStep(&done, total, line)
		return r.Cycles, nil
	}
	order := takeOrder(jobs)
	var wg sync.WaitGroup
	for w := 0; w < min(opt.Parallelism, len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := int(next.Add(1)) - 1; n < len(jobs); n = int(next.Add(1)) - 1 {
				i := order[n]
				outs[i].cycles, outs[i].err = run(jobs[i])
				streams.finish(jobs[i])
			}
		}()
	}
	wg.Wait()
	cycles := make(map[string]map[string]int64)
	for i, j := range jobs {
		if outs[i].err != nil {
			return nil, outs[i].err
		}
		if cycles[j.bench] == nil {
			cycles[j.bench] = make(map[string]int64)
		}
		cycles[j.bench][j.col] = outs[i].cycles
	}
	return cycles, nil
}

// assemble builds a Result with values[col] = cycles[base]/cycles[col]
// (relative performance, higher is better).
func assemble(id, title, metric string, benches, cols []string,
	cycles map[string]map[string]int64, baseCol string) *Result {
	res := &Result{ID: id, Title: title, Metric: metric, Columns: cols, Geomean: map[string]float64{}}
	sorted := append([]string(nil), benches...)
	sort.Strings(sorted)
	for _, bench := range sorted {
		row := Row{Benchmark: bench, Values: map[string]float64{}}
		base := cycles[bench][baseCol]
		for _, c := range cols {
			if v := cycles[bench][c]; v > 0 && base > 0 {
				row.Values[c] = float64(base) / float64(v)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	for _, c := range cols {
		res.Geomean[c] = geomean(res.Rows, c)
	}
	return res
}

func (o Options) parboil() []string {
	if len(o.Benchmarks) > 0 {
		return o.Benchmarks
	}
	return workloads.Names("parboil")
}

// Fig10 regenerates Figure 10: performance of wd-commit, wd-lastcheck
// and replay-queue relative to the stall-on-fault baseline on
// fault-free (fully resident) runs.
func Fig10(opt Options) (*Result, error) {
	opt = opt.normalize()
	benches := opt.parboil()
	schemes := []config.Scheme{
		config.Baseline, config.WarpDisableCommit,
		config.WarpDisableLastCheck, config.ReplayQueue,
	}
	var jobs []runJob
	for _, bench := range benches {
		for _, s := range schemes {
			cfg := config.Default()
			cfg.Scheme = s
			jobs = append(jobs, runJob{bench: bench, col: s.String(), cfg: cfg, place: workloads.Resident()})
		}
	}
	cycles, err := runAll(opt, "fig10", jobs)
	if err != nil {
		return nil, err
	}
	cols := []string{"wd-commit", "wd-lastcheck", "replay-queue"}
	return assemble("fig10", "Performance of warp disable and replay queue pipelines",
		"normalized to baseline, higher is better", benches, cols, cycles, "baseline"), nil
}

// Fig11 regenerates Figure 11: operand log performance at 8, 16, 20 and
// 32 KB log sizes, relative to the baseline.
func Fig11(opt Options) (*Result, error) {
	opt = opt.normalize()
	benches := opt.parboil()
	sizes := []int{8, 16, 20, 32}
	var jobs []runJob
	for _, bench := range benches {
		base := config.Default()
		jobs = append(jobs, runJob{bench: bench, col: "baseline", cfg: base, place: workloads.Resident()})
		for _, kb := range sizes {
			cfg := config.Default()
			cfg.Scheme = config.OperandLog
			cfg.SM.OperandLog.SizeKB = kb
			jobs = append(jobs, runJob{bench: bench, col: fmt.Sprintf("log-%dKB", kb), cfg: cfg, place: workloads.Resident()})
		}
	}
	cycles, err := runAll(opt, "fig11", jobs)
	if err != nil {
		return nil, err
	}
	cols := []string{"log-8KB", "log-16KB", "log-20KB", "log-32KB"}
	return assemble("fig11", "Performance of the operand log scheme by log size",
		"normalized to baseline, higher is better", benches, cols, cycles, "baseline"), nil
}

// Fig12 regenerates Figure 12: speedup from thread block switching on
// fault under on-demand paging, for NVLink and PCIe, with normal and
// ideal (1-cycle) context switching; relative to the same system
// without switching.
func Fig12(opt Options) (*Result, error) {
	opt = opt.normalize()
	benches := opt.parboil()
	links := map[string]config.InterconnectConfig{
		"nvlink": config.NVLinkConfig(),
		"pcie":   config.PCIeConfig(),
	}
	var jobs []runJob
	for _, bench := range benches {
		for lname, link := range links {
			base := config.Default()
			base.Scheme = config.ReplayQueue
			base.DemandPaging = true
			base.Link = link
			jobs = append(jobs, runJob{bench: bench, col: lname + "-base", cfg: base, place: workloads.DemandPaging()})

			sw := base
			sw.Scheduler.Enabled = true
			jobs = append(jobs, runJob{bench: bench, col: lname, cfg: sw, place: workloads.DemandPaging()})

			ideal := sw
			ideal.Scheduler.IdealContextSwitch = true
			jobs = append(jobs, runJob{bench: bench, col: lname + "-ideal", cfg: ideal, place: workloads.DemandPaging()})
		}
	}
	cycles, err := runAll(opt, "fig12", jobs)
	if err != nil {
		return nil, err
	}
	// Each link normalizes to its own no-switching base.
	res := &Result{
		ID:      "fig12",
		Title:   "Thread block switching on fault vs. no switching",
		Metric:  "speedup over no-switching, higher is better",
		Columns: []string{"nvlink", "nvlink-ideal", "pcie", "pcie-ideal"},
		Geomean: map[string]float64{},
	}
	sorted := append([]string(nil), benches...)
	sort.Strings(sorted)
	for _, bench := range sorted {
		row := Row{Benchmark: bench, Values: map[string]float64{}}
		for lname := range links {
			base := cycles[bench][lname+"-base"]
			if base == 0 {
				continue
			}
			if v := cycles[bench][lname]; v > 0 {
				row.Values[lname] = float64(base) / float64(v)
			}
			if v := cycles[bench][lname+"-ideal"]; v > 0 {
				row.Values[lname+"-ideal"] = float64(base) / float64(v)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	for _, c := range res.Columns {
		res.Geomean[c] = geomean(res.Rows, c)
	}
	return res, nil
}

// localHandlingFigure shares the Figure 13/14 machinery: speedup of
// GPU-local fault handling over CPU handling for lazily allocated
// pages, per interconnect.
func localHandlingFigure(opt Options, id, title string, benches []string) (*Result, error) {
	links := map[string]config.InterconnectConfig{
		"nvlink": config.NVLinkConfig(),
		"pcie":   config.PCIeConfig(),
	}
	var jobs []runJob
	for _, bench := range benches {
		for lname, link := range links {
			cpu := config.Default()
			cpu.Scheme = config.ReplayQueue
			cpu.Link = link
			cpu.LazyOutput = true
			jobs = append(jobs, runJob{bench: bench, col: lname + "-cpu", cfg: cpu, place: workloads.LazyOutput()})

			gpu := cpu
			gpu.Local.Enabled = true
			jobs = append(jobs, runJob{bench: bench, col: lname + "-gpu", cfg: gpu, place: workloads.LazyOutput()})
		}
	}
	cycles, err := runAll(opt, id, jobs)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:      id,
		Title:   title,
		Metric:  "speedup of GPU-local handling over CPU handling, higher is better",
		Columns: []string{"nvlink", "pcie"},
		Geomean: map[string]float64{},
	}
	sorted := append([]string(nil), benches...)
	sort.Strings(sorted)
	for _, bench := range sorted {
		row := Row{Benchmark: bench, Values: map[string]float64{}}
		for lname := range links {
			cpu := cycles[bench][lname+"-cpu"]
			gpu := cycles[bench][lname+"-gpu"]
			if cpu > 0 && gpu > 0 {
				row.Values[lname] = float64(cpu) / float64(gpu)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	for _, c := range res.Columns {
		res.Geomean[c] = geomean(res.Rows, c)
	}
	return res, nil
}

// Fig13 regenerates Figure 13: local handling of faults to pages
// backing dynamic (device-malloc) allocations, on the Halloc suite and
// the quad-tree port.
func Fig13(opt Options) (*Result, error) {
	opt = opt.normalize()
	benches := opt.Benchmarks
	if len(benches) == 0 {
		benches = append(workloads.Names("halloc"), workloads.Names("sdk")...)
	}
	return localHandlingFigure(opt, "fig13",
		"Local handling of faults to dynamically allocated pages", benches)
}

// Fig14 regenerates Figure 14: local handling of faults to kernel
// output pages across the Parboil suite.
func Fig14(opt Options) (*Result, error) {
	opt = opt.normalize()
	return localHandlingFigure(opt, "fig14",
		"Local handling of faults to output pages", opt.parboil())
}

// Table1 renders the simulation parameters (the paper's Table 1).
func Table1() string {
	c := config.Default()
	var sb strings.Builder
	sb.WriteString("Table 1 — Simulation parameters\n")
	fmt.Fprintf(&sb, "SM:      %.0f GHz, %d max TBs, %d max warps, %d KB RF, %d KB shared\n",
		c.System.FrequencyGHz, c.SM.MaxThreadBlocks, c.SM.MaxWarps, c.SM.RegisterFileKB, c.SM.SharedMemoryKB)
	fmt.Fprintf(&sb, "Issue:   %d instructions from up to %d warps; %d math, %d SFU, %d ld/st, %d branch units\n",
		c.SM.IssueWidth, c.SM.IssueWarps, c.SM.MathUnits, c.SM.SpecialUnits, c.SM.LoadStore, c.SM.BranchUnits)
	fmt.Fprintf(&sb, "L1:      %d KB / %d-way / %d B lines, %d MSHRs, %d clk; L1 TLB %d entries / %d-way\n",
		c.SM.L1SizeKB, c.SM.L1Ways, c.SM.L1LineB, c.SM.L1MSHRs, c.SM.L1Latency, c.SM.L1TLBSize, c.SM.L1TLBWays)
	fmt.Fprintf(&sb, "System:  %d SMs; L2 %d KB / %d-way, %d clk, %d MSHRs; L2 TLB %d entries, %d MSHRs, %d clk\n",
		c.System.NumSMs, c.System.L2SizeKB, c.System.L2Ways, c.System.L2Latency, c.System.L2MSHRs,
		c.System.L2TLBEntries, c.System.L2TLBMSHRs, c.System.L2TLBLatency)
	fmt.Fprintf(&sb, "Walkers: %d page table walkers, %d clk walks\n", c.System.PTWalkers, c.System.WalkLatency)
	fmt.Fprintf(&sb, "DRAM:    %.0f GB/s, %d clk; pages %d B, fault handling granularity %d KB\n",
		c.System.DRAMBandwidthGBs, c.System.DRAMLatency, c.System.PageSize, c.System.FaultGranularity/1024)
	return sb.String()
}
