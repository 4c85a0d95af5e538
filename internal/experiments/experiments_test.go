package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gpues/internal/config"
	"gpues/internal/sim"
	"gpues/internal/workloads"
)

// The full suites run via cmd/experiments; tests here exercise the
// harness machinery on single-benchmark subsets.

func TestFig10SubsetShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	r, err := Fig10(Options{Scale: 1, Benchmarks: []string{"mri-q"}})
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "fig10" || len(r.Rows) != 1 {
		t.Fatalf("result = %+v", r)
	}
	row := r.Rows[0]
	wd := row.Values["wd-commit"]
	lc := row.Values["wd-lastcheck"]
	rq := row.Values["replay-queue"]
	if wd <= 0 || lc <= 0 || rq <= 0 {
		t.Fatalf("missing values: %+v", row.Values)
	}
	// The ordering invariant of Section 5.2: baseline >= rq >= lc >= wd
	// (small tolerance for structural noise).
	if wd > lc*1.02 || lc > rq*1.02 || rq > 1.02 {
		t.Errorf("scheme ordering violated: wd=%.3f lc=%.3f rq=%.3f", wd, lc, rq)
	}
	if g := r.Geomean["wd-commit"]; g != wd {
		t.Errorf("single-row geomean = %v, want %v", g, wd)
	}
}

func TestFig13SubsetRouting(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	r, err := Fig13(Options{Scale: 1, Benchmarks: []string{"halloc-spree"}})
	if err != nil {
		t.Fatal(err)
	}
	nv := r.Rows[0].Values["nvlink"]
	pc := r.Rows[0].Values["pcie"]
	if nv <= 1 {
		t.Errorf("local handling of halloc-spree must win on NVLink, got %.3f", nv)
	}
	if pc <= nv {
		t.Errorf("PCIe speedup (%.3f) must exceed NVLink's (%.3f): higher fault cost, more contention", pc, nv)
	}
}

func TestProgressCallback(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	var lines []string
	_, err := Fig10(Options{
		Scale:      1,
		Benchmarks: []string{"mri-q"},
		Progress:   func(s string) { lines = append(lines, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// 4 schemes = 4 runs.
	if len(lines) != 4 {
		t.Errorf("progress lines = %d, want 4", len(lines))
	}
}

// TestRunAllSharesAndReleasesStreams runs a two-workload campaign whose
// schemes share one trace stream per workload: every job must report
// the cycles a plain simulation of it does, a stream must be live while
// jobs report, and none may stay live once the campaign returns.
func TestRunAllSharesAndReleasesStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	var jobs []runJob
	for _, bench := range []string{"mri-q", "sgemm"} {
		for _, s := range []config.Scheme{config.Baseline, config.WarpDisableCommit, config.ReplayQueue} {
			cfg := config.Default()
			cfg.Scheme = s
			jobs = append(jobs, runJob{bench: bench, col: s.String(), cfg: cfg, place: workloads.Resident()})
		}
	}
	streams := newStreamTable(jobs)
	var maxLive int
	opt := Options{Scale: 1, Parallelism: 2, Progress: func(string) {
		maxLive = max(maxLive, streams.live())
	}}.normalize()
	cycles, err := runJobs(opt, "streams", jobs, streams)
	if err != nil {
		t.Fatal(err)
	}
	if n := streams.live(); n != 0 {
		t.Errorf("%d trace streams live after the campaign returned", n)
	}
	if maxLive == 0 {
		t.Error("no shared trace stream was live while jobs reported")
	}
	for _, j := range jobs {
		spec, err := buildSpec(opt, j)
		if err != nil {
			t.Fatal(err)
		}
		r, err := sim.RunSpec(j.cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := cycles[j.bench][j.col]; got != r.Cycles {
			t.Errorf("%s/%s: campaign reported %d cycles, a plain run takes %d", j.bench, j.col, got, r.Cycles)
		}
	}
}

func TestUnknownBenchmarkFails(t *testing.T) {
	if _, err := Fig10(Options{Benchmarks: []string{"nope"}}); err == nil {
		t.Fatal("unknown benchmark must fail")
	}
}

func TestTable1Render(t *testing.T) {
	out := Table1()
	for _, want := range []string{"16 SMs", "64 page table walkers", "256 GB/s", "64 KB"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q:\n%s", want, out)
		}
	}
}

func TestResultString(t *testing.T) {
	r := &Result{
		ID:      "figX",
		Title:   "test",
		Metric:  "ratio",
		Columns: []string{"a", "b"},
		Rows: []Row{
			{Benchmark: "w1", Values: map[string]float64{"a": 1.5, "b": 0.5}},
			{Benchmark: "w2", Values: map[string]float64{"a": 2.0, "b": 0.5}},
		},
		Geomean: map[string]float64{},
	}
	for _, c := range r.Columns {
		r.Geomean[c] = geomean(r.Rows, c)
	}
	out := r.String()
	if !strings.Contains(out, "figX") || !strings.Contains(out, "geomean") {
		t.Errorf("rendered:\n%s", out)
	}
	// geomean(1.5, 2.0) = sqrt(3).
	if g := r.Geomean["a"]; g < 1.73 || g > 1.74 {
		t.Errorf("geomean a = %v, want ~1.732", g)
	}
	if g := r.Geomean["b"]; g != 0.5 {
		t.Errorf("geomean b = %v, want 0.5", g)
	}
}

func TestGeomeanSkipsZeros(t *testing.T) {
	rows := []Row{
		{Benchmark: "w1", Values: map[string]float64{"a": 2.0}},
		{Benchmark: "w2", Values: map[string]float64{}}, // missing
	}
	if g := geomean(rows, "a"); g != 2.0 {
		t.Errorf("geomean = %v, want 2.0 (missing values skipped)", g)
	}
	if g := geomean(nil, "a"); g != 0 {
		t.Errorf("empty geomean = %v, want 0", g)
	}
}

func TestResumeDirSkipsFinishedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	opt := Options{Scale: 1, Benchmarks: []string{"mri-q"}, ResumeDir: dir, CheckpointEvery: 20_000}

	first, err := Fig10(opt)
	if err != nil {
		t.Fatal(err)
	}
	done, err := filepath.Glob(filepath.Join(dir, "fig10-mri-q-*.done.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 4 { // 4 schemes
		t.Fatalf("done files = %v, want 4", done)
	}

	// Second invocation must skip every run and reproduce the figure.
	var lines []string
	opt.Progress = func(s string) { lines = append(lines, s) }
	second, err := Fig10(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lines {
		if !strings.Contains(l, "skipped") {
			t.Errorf("run not skipped on resume: %s", l)
		}
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("resumed figure differs:\nfirst  %v\nsecond %v", first, second)
	}
}

func TestResumeDirDiscardStaleDoneFile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	// A done-file from a different scale must not satisfy this campaign.
	stale := doneRecord{Fig: "fig10", Bench: "mri-q", Col: "baseline", Scale: 7, Cycles: 1}
	data, _ := json.Marshal(stale)
	if err := os.WriteFile(filepath.Join(dir, "fig10-mri-q-baseline.done.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Fig10(Options{Scale: 1, Benchmarks: []string{"mri-q"}, ResumeDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if v := r.Rows[0].Values["replay-queue"]; v <= 0 || v > 1.02 {
		t.Errorf("stale done-file corrupted the figure: %+v", r.Rows[0].Values)
	}
}

// A torn done-file (kill -9 mid-write leaves only the .tmp sibling, or
// a corrupt destination) must read as absent: the job reruns instead of
// being skipped with garbage cycles.
func TestResumeDirIgnoresTornDoneFile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	// Only the .tmp sibling exists: the atomic-write idiom guarantees the
	// destination never appears half-written, so this is the on-disk
	// state after a mid-write kill.
	if err := os.WriteFile(filepath.Join(dir, "fig10-mri-q-baseline.done.json.tmp"),
		[]byte(`{"fig":"fig10","bench":"mri-q"`), 0o644); err != nil {
		t.Fatal(err)
	}
	// And a sibling column's destination holds garbage (torn by a
	// non-atomic writer): it must be discarded, not half-decoded.
	if err := os.WriteFile(filepath.Join(dir, "fig10-mri-q-replay-queue.done.json"),
		[]byte(`{"fig":"fig10","cycles":`), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Fig10(Options{Scale: 1, Benchmarks: []string{"mri-q"}, ResumeDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if v := r.Rows[0].Values["replay-queue"]; v <= 0 || v > 1.02 {
		t.Errorf("torn done-files corrupted the figure: %+v", r.Rows[0].Values)
	}
}

// A checkpoint written under a different configuration (here: another
// scheme) must be discarded — fingerprint mismatch — and the job rerun
// from scratch on a fresh memory image.
func TestResumeDirDiscardsStaleCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()

	// Plant a mid-flight checkpoint of a replay-queue run where the
	// baseline column's checkpoints live.
	cfg := config.Default()
	cfg.Scheme = config.ReplayQueue
	spec, err := workloads.Build("mri-q", workloads.Params{Scale: 1, Placement: workloads.Resident()})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StepTo(5000); err != nil {
		t.Fatal(err)
	}
	ckptDir := filepath.Join(dir, "fig10-mri-q-baseline.ckpts")
	if _, err := s.WriteCheckpoint(ckptDir); err != nil {
		t.Fatal(err)
	}

	var lines []string
	r, err := Fig10(Options{Scale: 1, Benchmarks: []string{"mri-q"}, ResumeDir: dir,
		Progress: func(s string) { lines = append(lines, s) }})
	if err != nil {
		t.Fatal(err)
	}
	discarded := false
	for _, l := range lines {
		if strings.Contains(l, "discarding checkpoint") {
			discarded = true
		}
	}
	if !discarded {
		t.Errorf("stale checkpoint was not discarded; progress: %q", lines)
	}
	if v := r.Rows[0].Values["replay-queue"]; v <= 0 || v > 1.02 {
		t.Errorf("stale checkpoint corrupted the figure: %+v", r.Rows[0].Values)
	}
}
