package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gpues/internal/excep"
)

// resilienceCounts runs a one-benchmark campaign and returns the rows
// keyed by name, for exact comparison.
func resilienceCounts(t *testing.T, opt Options) map[string]map[string]float64 {
	t.Helper()
	r, err := Resilience(opt)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]map[string]float64{}
	for _, row := range r.Rows {
		rows[row.Benchmark] = row.Values
	}
	return rows
}

func TestResilienceCountsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	opt := Options{Scale: 1, Benchmarks: []string{"mri-q"}, Trials: 2}
	a := resilienceCounts(t, opt)
	b := resilienceCounts(t, opt)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("classification counts differ across reruns:\n%v\n%v", a, b)
	}
	for row, vals := range a {
		var total float64
		for _, v := range vals {
			total += v
		}
		if total != 2 {
			t.Errorf("row %s classified %v trials, want 2: %v", row, total, vals)
		}
	}
	if len(a) != len(resilienceProtections) {
		t.Errorf("got %d rows, want the %d-rung protection ladder", len(a), len(resilienceProtections))
	}
}

func TestResiliencePinnedCell(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	opt := Options{Scale: 1, Benchmarks: []string{"mri-q"}, Trials: 1,
		FlipSeed: 12345, FlipRate: 1e-4, ProtectPin: true, ProtectThreads: 0}
	rows := resilienceCounts(t, opt)
	if len(rows) != 1 {
		t.Fatalf("pinned protection must collapse the ladder to one row, got %v", rows)
	}
	vals, ok := rows["mri-q/t0"]
	if !ok {
		t.Fatalf("missing pinned row mri-q/t0: %v", rows)
	}
	var total float64
	for _, v := range vals {
		total += v
	}
	if total != 1 {
		t.Fatalf("pinned cell classified %v trials, want 1: %v", total, vals)
	}
	if !reflect.DeepEqual(rows, resilienceCounts(t, opt)) {
		t.Fatal("pinned-seed counts differ across reruns")
	}
}

func TestResiliencePreemptibleMode(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	opt := Options{Scale: 1, Benchmarks: []string{"mri-q"}, Trials: 1,
		ProtectPin: true, ProtectThreads: 0, ExcepMode: excep.ModePreemptible}
	rows := resilienceCounts(t, opt)
	if !reflect.DeepEqual(rows, resilienceCounts(t, opt)) {
		t.Fatal("preemptible-mode counts differ across reruns")
	}
}

// TestResilienceKillAndResume exercises the campaign's crash recovery,
// as TestChaosKillAndResume does the chaos sweep's: a full pass records
// one done-file per trial; deleting some (a campaign killed mid-flight)
// and re-invoking reruns exactly those trials and reproduces the
// result; and a rerun under another flip rate reuses none of them.
func TestResilienceKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	opt := Options{Scale: 1, Benchmarks: []string{"mri-q"}, Trials: 2, FlipSeed: 7, ResumeDir: dir}
	skips := func() (*Result, int) {
		t.Helper()
		var skipped int
		opt.Progress = func(s string) {
			if strings.Contains(s, "(done, skipped)") {
				skipped++
			}
		}
		r, err := Resilience(opt)
		if err != nil {
			t.Fatal(err)
		}
		return r, skipped
	}

	first, _ := skips()
	done, err := filepath.Glob(filepath.Join(dir, "resilience-mri-q-*.done.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 6 { // 3 protection rungs x 2 trials
		t.Fatalf("done files = %v, want 6", done)
	}

	for _, name := range []string{"resilience-mri-q-p0-t1.done.json", "resilience-mri-q-p100-t0.done.json"} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	second, skipped := skips()
	if !reflect.DeepEqual(first, second) {
		t.Errorf("resumed campaign differs:\nfirst  %v\nsecond %v", first, second)
	}
	if skipped != 4 { // 6 trials minus the 2 deleted done-files
		t.Errorf("skipped %d trials on resume, want 4", skipped)
	}

	// Same benchmarks, cells and trial names, another flip rate: every
	// done-file's config fingerprint mismatches.
	opt.FlipRate = 2 * resilienceFlipRate
	if _, skipped := skips(); skipped != 0 {
		t.Errorf("skipped %d trials under another flip rate, want 0", skipped)
	}
}
