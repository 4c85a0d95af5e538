package emu_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"gpues/internal/emu"
	"gpues/internal/workloads"
)

// traceDigests are FNV-1a digests of every trace entry's (pc, mask,
// line count, lines) over the whole grid at scale 1, recorded when each
// entry carried its own coalesced line slice. The line slab must
// reproduce them exactly.
var traceDigests = map[string]uint64{
	"sgemm":   0x7c4299fcccd283cd,
	"stencil": 0x73ceda9e67b6ef2d,
	"histo":   0x50334bc2e01819fa,
	"bfs":     0x9465c5d94a4d7411,
}

// TestBlockTraceSlabs checks the trace tables of real workloads: the
// line slab is exactly sized, every entry's line range lies inside it,
// the ranges tile it without overlap, and each entry's lines are
// line-aligned and distinct (one request per unique line), with the
// block summary counting exactly the global ones. The entries' lines
// must also match the per-instruction coalesce output (traceDigests).
func TestBlockTraceSlabs(t *testing.T) {
	// sgemm and stencil use shared memory, histo atomics, bfs
	// data-dependent gathers.
	for _, name := range []string{"sgemm", "stencil", "histo", "bfs"} {
		t.Run(name, func(t *testing.T) {
			spec, err := workloads.Build(name, workloads.Params{Scale: 1})
			if err != nil {
				t.Fatal(err)
			}
			const lineSize = 128
			e, err := emu.New(spec.Launch, spec.Memory, lineSize)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
			for blk := 0; blk < spec.Launch.Blocks(); blk++ {
				bt, err := e.EmulateBlock(blk)
				if err != nil {
					t.Fatal(err)
				}
				checkSlabs(t, bt, lineSize)
				for w := range bt.Warps {
					for i := range bt.Warps[w].Insts {
						ti := &bt.Warps[w].Insts[i]
						put(uint64(ti.PC))
						put(uint64(ti.Mask))
						put(uint64(ti.NLines))
						for _, a := range bt.InstLines(ti) {
							put(a)
						}
					}
				}
			}
			if got := h.Sum64(); got != traceDigests[name] {
				t.Errorf("trace digest %#x, want %#x", got, traceDigests[name])
			}
		})
	}
}

func checkSlabs(t *testing.T, bt *emu.BlockTrace, lineSize uint64) {
	t.Helper()
	if len(bt.Lines) != cap(bt.Lines) {
		t.Fatalf("block %d: line slab len %d cap %d", bt.BlockID, len(bt.Lines), cap(bt.Lines))
	}
	owner := make([]bool, len(bt.Lines))
	memRequests := 0
	for w := range bt.Warps {
		for i := range bt.Warps[w].Insts {
			ti := &bt.Warps[w].Insts[i]
			end := uint64(ti.LineOff) + uint64(ti.NLines)
			if end > uint64(len(bt.Lines)) {
				t.Fatalf("block %d warp %d inst %d: lines [%d,%d) beyond slab of %d",
					bt.BlockID, w, i, ti.LineOff, end, len(bt.Lines))
			}
			in := &bt.Code[ti.PC]
			if !in.IsMem() && ti.NLines != 0 {
				t.Fatalf("block %d pc %d: non-memory %v has %d lines", bt.BlockID, ti.PC, in.Op, ti.NLines)
			}
			if in.IsGlobalMem() {
				memRequests += int(ti.NLines)
			}
			lines := bt.InstLines(ti)
			for j, a := range lines {
				if owner[int(ti.LineOff)+j] {
					t.Fatalf("block %d pc %d: slab entry %d shared by two instructions", bt.BlockID, ti.PC, int(ti.LineOff)+j)
				}
				owner[int(ti.LineOff)+j] = true
				if a%lineSize != 0 {
					t.Fatalf("block %d pc %d: line %#x not aligned", bt.BlockID, ti.PC, a)
				}
				for _, b := range lines[:j] {
					if a == b {
						t.Fatalf("block %d pc %d: line %#x requested twice", bt.BlockID, ti.PC, a)
					}
				}
			}
		}
	}
	for i, ok := range owner {
		if !ok {
			t.Fatalf("block %d: slab entry %d belongs to no instruction", bt.BlockID, i)
		}
	}
	if memRequests != bt.MemRequests {
		t.Fatalf("block %d: entries hold %d global lines, summary says %d", bt.BlockID, memRequests, bt.MemRequests)
	}
}
