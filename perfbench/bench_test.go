package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke tests check the
// output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 1, trace: trace, tiny: true,
		out: t.TempDir(), tmp: t.TempDir(), root: ".."}
}

// runTiny runs one workload on the tiny cell set and returns the report
// and its parsed result line.
func runTiny(t *testing.T, opt options, exp *expectedTable) (*report, resultLine) {
	t.Helper()
	rep, err := run(opt, exp)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := rep.write(&out, opt); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	return rep, line
}

// TestWorkloadsEmitEveryMetric runs every workload untraced and traced
// and checks that each metric BENCHMARK.json names is emitted with its
// unit, that the run is correct, and that no span has negative self
// time.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloadList))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			rep, line := runTiny(t, tinyOptions(t, w.Name, trace), exp)
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					w.Name, trace, line.Correct, line.Attempted, line.Failed, rep.Failures)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.Name, trace, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.Name, trace, m.Name, got.Value)
				}
			}
			if !trace {
				continue
			}
			if len(rep.spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", w.Name)
			}
			// The run loop contains the emulation the separate pass
			// repeats, so what remains for the timing model is positive.
			if got := line.Metrics["sim.timing_s"].Value; got <= 0 {
				t.Errorf("%s: sim.timing_s = %v, want > 0", w.Name, got)
			}
			for id, self := range selfTimes(rep.spans) {
				// Self time is a difference of float seconds; allow a
				// nanosecond of rounding.
				if self < -1e-9 {
					t.Errorf("%s: span %d has self time %v", w.Name, id, self)
				}
			}
		}
	}
}

// TestPerturbedExpectedRejected changes one expected value per workload
// and checks that the run reports a failed operation.
func TestPerturbedExpectedRejected(t *testing.T) {
	perturb := map[string]func(*expectedTable){
		"fig10-campaign": func(e *expectedTable) {
			e.Fig10["stencil"]["wd-commit"] += 1e-9
		},
		"fault-runs": func(e *expectedTable) {
			k := "quadtree/replay-queue/s1/nvlink/lazy/local"
			c := e.Cells[k]
			c.StallDigest = "0000000000000000"
			e.Cells[k] = c
		},
		"fabric": func(e *expectedTable) {
			k := "stencil/baseline/s1/nvlink/resident"
			c := e.Cells[k]
			c.Committed++
			e.Cells[k] = c
		},
	}
	for _, w := range workloadList {
		exp, err := loadExpected()
		if err != nil {
			t.Fatal(err)
		}
		perturb[w.name](exp)
		rep, line := runTiny(t, tinyOptions(t, w.name, false), exp)
		if line.Correct || line.Failed == 0 {
			t.Errorf("%s: perturbed table accepted (correct=%v failed=%d)", w.name, line.Correct, line.Failed)
		}
		if len(rep.Failures) == 0 {
			t.Errorf("%s: no failure recorded", w.name)
		}
	}
}

// TestSelfTimeSubtractsChildUnion checks self time against overlapping
// and overhanging children.
func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 10},
		{ID: 2, Parent: 1, Start: 1, End: 4},
		{ID: 3, Parent: 1, Start: 3, End: 6},  // overlaps span 2
		{ID: 4, Parent: 1, Start: 9, End: 12}, // runs past its parent
	}
	self := selfTimes(spans)
	if got := self[1]; math.Abs(got-4) > 1e-12 {
		t.Errorf("self time of the parent = %v, want 4", got)
	}
	if got := self[2]; got != 3 {
		t.Errorf("self time of a leaf = %v, want 3", got)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, pct := tail(xs)
	if v != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90", v, pct)
	}
}
