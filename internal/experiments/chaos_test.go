package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestChaosKillAndResume exercises the sweep's crash recovery: a full
// pass records one done-file per clean/chaos run half; deleting a
// subset (simulating a campaign killed mid-flight) and re-invoking
// re-runs exactly the missing halves and reproduces the original
// result bit for bit.
func TestChaosKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	opt := Options{Scale: 1, Benchmarks: []string{"mri-q"}, ResumeDir: dir}

	first, err := Chaos(opt)
	if err != nil {
		t.Fatal(err)
	}
	done, err := filepath.Glob(filepath.Join(dir, "chaos-mri-q-*.done.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 8 { // 4 schemes x {clean, chaos}
		t.Fatalf("done files = %v, want 8", done)
	}

	// Kill mid-campaign: drop the replay-queue halves and one clean
	// half of another scheme, keeping the rest finished.
	for _, name := range []string{
		"chaos-mri-q-replay-queue-clean.done.json",
		"chaos-mri-q-replay-queue-chaos.done.json",
		"chaos-mri-q-wd-commit-clean.done.json",
	} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}

	var lines []string
	opt.Progress = func(s string) { lines = append(lines, s) }
	second, err := Chaos(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("resumed sweep differs:\nfirst  %v\nsecond %v", first, second)
	}
	var skipped int
	for _, l := range lines {
		if strings.Contains(l, "(done, skipped)") {
			skipped++
		}
	}
	if skipped != 5 { // 8 halves minus the 3 deleted done-files
		t.Errorf("skipped %d halves on resume, want 5:\n%s", skipped, strings.Join(lines, "\n"))
	}

	// A third pass must skip everything, and its last campaign step must
	// count every half.
	lines = nil
	var steps, total int
	opt.CampaignProgress = func(d, n int, _ string) { steps, total = d, n }
	if _, err := Chaos(opt); err != nil {
		t.Fatal(err)
	}
	skipped = 0
	for _, l := range lines {
		if strings.Contains(l, "(done, skipped)") {
			skipped++
		}
	}
	if skipped != 8 {
		t.Errorf("skipped %d halves on full resume, want 8", skipped)
	}
	if steps != 8 || total != 8 {
		t.Errorf("final campaign progress = %d/%d, want 8/8", steps, total)
	}
}
