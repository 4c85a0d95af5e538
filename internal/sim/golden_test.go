package sim_test

import (
	"fmt"
	"testing"

	"gpues/internal/chaos"
	"gpues/internal/ckpt"
	"gpues/internal/excep"
	"gpues/internal/obs"
	"gpues/internal/sim"
)

// goldenCell is one pinned run: its absolute cycle count, committed
// instructions, nine-reason stall breakdown, a hash of the end-of-run
// per-component state digests, and (for the chaos row) the injected
// event fingerprint.
type goldenCell struct {
	name      string
	cycles    int64
	committed int64
	stalls    obs.StallBreakdown
	digests   uint64
	chaosFP   uint64
}

// goldenCells pins the parCases shapes, once per exception mode, plus
// the level-3 chaos run of the Fig12 shape. A timing-model change that
// moves any of these is a behaviour change: regenerate the table by
// hand, from a run of this test's failure output, and say so in the
// change log.
var goldenCells = []goldenCell{
	{"fig10-lbm-operand-log/precise", 17489, 48192,
		obs.StallBreakdown{277530, 11180, 11865, 0, 0, 0, 11835, 0, 0},
		0xc40b07c6354094b5, 0},
	{"fig12-sgemm-paging-switching/precise", 223217, 823296,
		obs.StallBreakdown{5219545, 751132, 0, 0, 51672130, 4363, 770065, 0, 12857036},
		0xfbce0b2c2752c22f, 0},
	{"fig12-sgemm-paging-switching/preemptible", 223217, 823296,
		obs.StallBreakdown{5219545, 751132, 0, 0, 51672130, 4363, 770065, 0, 12857036},
		0xfbce0b2c2752c22f, 0},
	{"fig13-halloc-spree-lazy-local/precise", 444437, 10240,
		obs.StallBreakdown{117038, 134796, 0, 0, 138895760, 0, 1536, 0, 0},
		0x00da3c7392f6df2c, 0},
	{"fig13-halloc-spree-lazy-local/preemptible", 444437, 10240,
		obs.StallBreakdown{117038, 134796, 0, 0, 138895760, 0, 1536, 0, 0},
		0x00da3c7392f6df2c, 0},
	{"fig12-sgemm-paging-switching/chaos-level3", 595206, 823296,
		obs.StallBreakdown{5155666, 601928, 0, 2990, 161463901, 156674, 919036, 0, 28992492},
		0x99e755ce57168ca7, 0x7cfde4a2f86f24fe},
}

// runGolden runs one cell on the sequential path and returns what the
// golden table records.
func runGolden(t *testing.T, pc parCase, mode excep.Mode, chaosLevel int) goldenCell {
	t.Helper()
	s, err := sim.New(caseConfig(pc, mode), buildSpec(t, pc))
	if err != nil {
		t.Fatal(err)
	}
	var plan *chaos.Plan
	if chaosLevel > 0 {
		if plan, err = chaos.ForLevel(chaosLevel, 42); err != nil {
			t.Fatal(err)
		}
		s.AttachChaos(plan)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := goldenCell{cycles: r.Cycles, committed: r.Committed, stalls: r.Stalls,
		digests: ckpt.Digest([]byte(fmt.Sprintf("%v", s.ComponentDigests())))}
	if plan != nil {
		got.chaosFP = plan.Fingerprint()
	}
	return got
}

// TestGoldenCells compares absolute results against the committed
// table, so a change that shifts timing fails here even when every
// self-consistency check (restored vs fresh, traced vs plain) still
// agrees with itself.
func TestGoldenCells(t *testing.T) {
	want := map[string]goldenCell{}
	for _, c := range goldenCells {
		want[c.name] = c
	}
	check := func(name string, pc parCase, mode excep.Mode, chaosLevel int) {
		t.Run(name, func(t *testing.T) {
			got := runGolden(t, pc, mode, chaosLevel)
			got.name = name
			w, ok := want[name]
			if !ok {
				t.Fatalf("no golden row; got %#v", got)
			}
			if got != w {
				t.Errorf("golden mismatch:\n got %#v\nwant %#v", got, w)
			}
		})
	}
	cases := parCases()
	for _, pc := range cases {
		for _, mode := range pc.modes {
			check(pc.name+"/"+mode.String(), pc, mode, 0)
		}
	}
	check(cases[1].name+"/chaos-level3", cases[1], excep.ModePrecise, 3)
}

// TestCheckpointSize pins the checkpoint to its header plus one 8-byte
// digest per component: a mid-run checkpoint of the Fig12 golden shape
// (16 SMs, 62 components) encodes to about 1.5 KB, where the
// components' serialized state would take hundreds of kilobytes.
func TestCheckpointSize(t *testing.T) {
	pc := parCases()[1]
	s, err := sim.New(caseConfig(pc, excep.ModePrecise), buildSpec(t, pc))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if reached, err := s.StepTo(100_000); err != nil || !reached {
		t.Fatalf("StepTo(100000): reached=%v err=%v", reached, err)
	}
	ck := s.Capture()
	if n := len(ck.Sections); n != 62 {
		t.Errorf("%s: %d sections, want 62", pc.name, n)
	}
	if n := len(ck.Encode()); n > 4<<10 {
		t.Errorf("%s: encoded checkpoint is %d bytes, want at most 4 KiB", pc.name, n)
	}
}
