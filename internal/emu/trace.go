package emu

import (
	"math/bits"

	"gpues/internal/excep"
	"gpues/internal/isa"
)

// TraceInst is one dynamic warp instruction in a trace: the static
// instruction index plus the runtime information the timing simulator
// needs (active mask and, for memory instructions, the coalesced line
// addresses). It holds no pointers: the static instruction is
// BlockTrace.Code[PC] and the line addresses live in BlockTrace.Lines,
// so a trace is 16 bytes per warp instruction and the garbage
// collector never scans it.
type TraceInst struct {
	// PC is the static instruction index in the kernel code.
	PC int32
	// Mask is the set of active lanes when the instruction executed.
	Mask uint32
	// LineOff and NLines locate the instruction's coalesced memory
	// request addresses in BlockTrace.Lines: one entry per unique cache
	// line touched by the active lanes, aligned to the line size, in
	// first-touch lane order. NLines is zero for non-memory
	// instructions and for memory instructions whose lanes were all
	// predicated off. For shared memory instructions the addresses are
	// offsets within the block's shared memory partition.
	LineOff, NLines uint32
}

// WarpTrace is the dynamic instruction sequence of one warp.
type WarpTrace struct {
	// WarpID is the warp index within its thread block.
	WarpID int
	// Insts is the dynamic instruction stream in execution order.
	Insts []TraceInst
	// Excep, when set, is the device exception the warp raised: Insts
	// ends just before the faulting instruction and the timing layer
	// delivers the record once the warp drains (see internal/sm).
	Excep *excep.Record
}

// BlockTrace is the dynamic trace of one thread block: one WarpTrace per
// warp, the tables their entries index, plus summary statistics.
type BlockTrace struct {
	// BlockID is the linear block index within the grid.
	BlockID int
	Warps   []WarpTrace
	// Code is the launch's kernel code: entry ti's static instruction
	// is Code[ti.PC].
	Code []isa.Instruction
	// Lines holds every coalesced line address of the block's memory
	// instructions, exactly sized; entry ti's are
	// Lines[ti.LineOff:ti.LineOff+ti.NLines].
	Lines []uint64

	// DynInsts is the total dynamic warp-instruction count.
	DynInsts int
	// GlobalAccesses is the number of global memory instructions.
	GlobalAccesses int
	// MemRequests is the number of coalesced global memory requests.
	MemRequests int
}

// InstLines returns the coalesced line addresses of trace entry ti.
func (bt *BlockTrace) InstLines(ti *TraceInst) []uint64 {
	end := ti.LineOff + ti.NLines
	return bt.Lines[ti.LineOff:end:end]
}

// TouchedPages returns the set of distinct virtual pages referenced by
// the block's global memory instructions, for the given page size.
func (bt *BlockTrace) TouchedPages(pageSize int) map[uint64]bool {
	pages := make(map[uint64]bool)
	mask := ^uint64(pageSize - 1)
	for i := range bt.Warps {
		for j := range bt.Warps[i].Insts {
			ti := &bt.Warps[i].Insts[j]
			if bt.Code[ti.PC].IsGlobalMem() {
				for _, a := range bt.InstLines(ti) {
					pages[a&mask] = true
				}
			}
		}
	}
	return pages
}

// coalesce appends to dst the unique line-aligned addresses covered by
// the per-lane accesses [addr, addr+size) for lanes set in mask,
// preserving first-touch order. Only dst[from:], the current
// instruction's lines, is searched for duplicates. The warp coalescing
// unit of the baseline SM generates exactly one memory request per
// unique line (Figure 5).
func coalesce(dst []uint64, from int, addrs *[32]uint64, mask uint32, size int, lineSize uint64) []uint64 {
	lineMask := ^(lineSize - 1)
	for m := mask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		first := addrs[lane] & lineMask
		last := (addrs[lane] + uint64(size) - 1) & lineMask
		for line := first; ; line += lineSize {
			seen := false
			for _, d := range dst[from:] {
				if d == line {
					seen = true
					break
				}
			}
			if !seen {
				dst = append(dst, line)
			}
			if line == last {
				break
			}
		}
	}
	return dst
}
