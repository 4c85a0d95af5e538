package emu

import (
	"fmt"
	"math"
	"math/bits"

	"gpues/internal/excep"
	"gpues/internal/gpualloc"
	"gpues/internal/isa"
	"gpues/internal/kernel"
)

// DefaultMaxWarpInsts bounds the dynamic instructions emulated per warp,
// to turn runaway kernels into errors instead of hangs.
const DefaultMaxWarpInsts = 8 << 20

// IllegalFloor is the lowest legal global address: accesses below it
// (the null page and its surroundings; workloads place buffers at
// 16 MB+) raise a KindIllegalAddress device exception.
const IllegalFloor = 1 << 16

// HangError marks functional non-termination — a warp exceeding its
// dynamic instruction budget or a block deadlocking at a barrier. It
// is the functional analogue of a timing-watchdog hang and is
// classified as one by the resilience campaign (recover with
// errors.As).
type HangError struct{ msg string }

func (e *HangError) Error() string { return e.msg }

func hangErrorf(format string, args ...any) error {
	return &HangError{msg: fmt.Sprintf(format, args...)}
}

// Emulator executes thread blocks of a kernel launch functionally and
// produces their dynamic traces. One Emulator serves one launch, and
// the simulator emulates its blocks strictly in index order, one at a
// time: that order is the observed inter-block interleaving for
// atomics and device malloc, so a block's trace depends only on the
// launch image, the flip config and the blocks before it.
type Emulator struct {
	launch   *kernel.Launch
	mem      *Memory
	lineSize uint64

	// MaxWarpInsts bounds the dynamic instruction count per warp.
	MaxWarpInsts int

	// AddrValid, when set, is the launch's address map: global accesses
	// to addresses it rejects raise an illegal-address exception, the
	// functional equivalent of an MMU fault on an unmapped VA. Unset,
	// only the IllegalFloor check applies (the timing layer still
	// aborts on unmapped accesses).
	AddrValid func(addr uint64) bool

	// Blocks are emulated one at a time, so one set of execution
	// scratch state serves every block: warp contexts (their 64 KB
	// register files are the dominant per-block allocation), their
	// trace buffers and the shared-memory buffer are reused, and
	// coalesced line addresses are carved out of a chunked arena
	// instead of one slice per instruction. A finished block's warp
	// traces are copied into one slab of exactly the block's length,
	// so a retained trace holds no spare capacity; the slab and the
	// arena chunks escape into the returned BlockTrace.
	ctxs      []*warpCtx
	sharedBuf []byte
	arena     []uint64

	// flip is the armed bit-flip injector (zero = off); flips counts
	// the flips applied so far across all blocks.
	flip  excep.FlipConfig
	flips int64
	// heap backs OpMalloc when the launch declares a device heap.
	heap *gpualloc.Allocator
}

// arenaChunk is the allocation granule for coalesced line addresses.
const arenaChunk = 8192

// New returns an Emulator for the launch. lineSize is the cache line
// size used by the coalescing unit (128 B in the baseline).
func New(l *kernel.Launch, mem *Memory, lineSize int) (*Emulator, error) {
	if err := l.Kernel.Validate(); err != nil {
		return nil, err
	}
	if l.ThreadsPerBlock() <= 0 || l.ThreadsPerBlock() > 32*64 {
		return nil, fmt.Errorf("emu: block of %d threads unsupported", l.ThreadsPerBlock())
	}
	if l.Blocks() <= 0 {
		return nil, fmt.Errorf("emu: empty grid")
	}
	if lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("emu: line size %d not a power of two", lineSize)
	}
	var heap *gpualloc.Allocator
	if l.HeapBytes > 0 {
		var err error
		if heap, err = gpualloc.New(l.HeapBase, l.HeapBytes); err != nil {
			return nil, err
		}
	}
	return &Emulator{
		launch:       l,
		mem:          mem,
		lineSize:     uint64(lineSize),
		MaxWarpInsts: DefaultMaxWarpInsts,
		heap:         heap,
	}, nil
}

// ConfigureFlips arms the bit-flip injector for the launch. Call
// before any block is emulated.
func (e *Emulator) ConfigureFlips(cfg excep.FlipConfig) { e.flip = cfg }

// Flips returns the number of bit flips injected so far. Blocks are
// emulated deterministically, so the count is seed-stable.
func (e *Emulator) Flips() int64 { return e.flips }

// Memory returns the functional memory the emulator executes against.
func (e *Emulator) Memory() *Memory { return e.mem }

// Launch returns the launch being emulated.
func (e *Emulator) Launch() *kernel.Launch { return e.launch }

type stackEntry struct {
	pc, rpc int32
	mask    uint32
}

type warpCtx struct {
	id        int
	regs      [][isa.MaxRegs]uint64 // per lane
	stack     []stackEntry
	exited    uint32
	threads   uint32 // lanes that hold live threads (partial last warp)
	atBarrier bool
	done      bool
	insts     int
	trace     []TraceInst

	// excep is the warp's raised exception, if any: the trace ends
	// just before the faulting instruction and the warp counts as done
	// (so barriers release, matching a killed warp in the SM).
	excep *excep.Record
	// flipAddrXor holds this instruction's transient address flips,
	// applied by execMem to the effective addresses of lanes in
	// flipAddrMask.
	flipAddrMask uint32
	flipAddrXor  [32]uint64
}

// EmulateBlock executes thread block blockID to completion and returns
// its trace. It is safe to call for each block exactly once per launch;
// global memory side effects accumulate in the shared Memory.
func (e *Emulator) EmulateBlock(blockID int) (*BlockTrace, error) {
	if blockID < 0 || blockID >= e.launch.Blocks() {
		return nil, fmt.Errorf("emu: block %d out of range [0,%d)", blockID, e.launch.Blocks())
	}
	threads := e.launch.ThreadsPerBlock()
	numWarps := (threads + 31) / 32
	sharedSize := e.launch.Kernel.SharedMemBytes
	if cap(e.sharedBuf) < sharedSize {
		e.sharedBuf = make([]byte, sharedSize)
	}
	shared := e.sharedBuf[:sharedSize]
	clear(shared)

	for len(e.ctxs) < numWarps {
		e.ctxs = append(e.ctxs, &warpCtx{regs: make([][isa.MaxRegs]uint64, 32)})
	}
	warps := e.ctxs[:numWarps]
	for w := 0; w < numWarps; w++ {
		lanes := 32
		if rem := threads - w*32; rem < 32 {
			lanes = rem
		}
		var tm uint32
		if lanes == 32 {
			tm = ^uint32(0)
		} else {
			tm = (1 << lanes) - 1
		}
		ctx := warps[w]
		for i := range ctx.regs {
			ctx.regs[i] = [isa.MaxRegs]uint64{}
		}
		ctx.id = w
		ctx.stack = append(ctx.stack[:0], stackEntry{pc: 0, rpc: -2, mask: tm})
		ctx.exited = 0
		ctx.threads = tm
		ctx.atBarrier = false
		ctx.done = false
		ctx.insts = 0
		ctx.trace = ctx.trace[:0]
		ctx.excep = nil
		ctx.flipAddrMask = 0
	}

	// Round-robin warp execution, switching at barriers, until all warps
	// are done. A pass with no progress means a malformed barrier.
	for {
		allDone := true
		progress := false
		for _, w := range warps {
			if w.done {
				continue
			}
			allDone = false
			if w.atBarrier {
				continue
			}
			before := w.insts
			if err := e.runWarp(w, blockID, shared); err != nil {
				return nil, fmt.Errorf("emu: block %d warp %d: %w", blockID, w.id, err)
			}
			if w.insts != before || w.done {
				progress = true
			}
		}
		if allDone {
			break
		}
		// Release the barrier once every live warp has arrived.
		arrived := true
		for _, w := range warps {
			if !w.done && !w.atBarrier {
				arrived = false
				break
			}
		}
		if arrived {
			for _, w := range warps {
				w.atBarrier = false
			}
			progress = true
		}
		if !progress {
			return nil, hangErrorf("emu: block %d deadlocked at a barrier (divergent __syncthreads?)", blockID)
		}
	}

	total := 0
	for _, ctx := range warps {
		total += len(ctx.trace)
	}
	slab := make([]TraceInst, total)
	bt := &BlockTrace{BlockID: blockID, Warps: make([]WarpTrace, numWarps)}
	for w, ctx := range warps {
		tr := slab[:len(ctx.trace):len(ctx.trace)]
		slab = slab[len(tr):]
		copy(tr, ctx.trace)
		bt.Warps[w] = WarpTrace{WarpID: w, Insts: tr, Excep: ctx.excep}
		bt.DynInsts += len(tr)
		for i := range tr {
			ti := &tr[i]
			if ti.Static.IsGlobalMem() {
				bt.GlobalAccesses++
				bt.MemRequests += len(ti.Lines)
			}
		}
	}
	return bt, nil
}

// runWarp executes the warp until it exits or reaches a barrier.
func (e *Emulator) runWarp(w *warpCtx, blockID int, shared []byte) error {
	code := e.launch.Kernel.Code
	for {
		if len(w.stack) == 0 {
			w.done = true
			return nil
		}
		top := &w.stack[len(w.stack)-1]
		if top.rpc >= 0 && top.pc == top.rpc {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		active := top.mask &^ w.exited
		if active == 0 {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		if top.pc < 0 || int(top.pc) >= len(code) {
			return fmt.Errorf("pc %d out of range", top.pc)
		}
		w.insts++
		max := e.MaxWarpInsts
		if max == 0 {
			max = DefaultMaxWarpInsts
		}
		if w.insts > max {
			return hangErrorf("exceeded %d dynamic instructions (runaway loop?)", max)
		}

		in := &code[top.pc]
		execMask := active
		if in.Pred != isa.RegNone {
			var pm uint32
			for m := active; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				p := e.readReg(w, lane, in.Pred)&1 != 0
				if p != in.PredNeg {
					pm |= 1 << lane
				}
			}
			execMask = pm
		}
		if e.flip.Enabled() {
			execMask = e.injectFlips(w, in, active, execMask, blockID)
		}

		ti := TraceInst{PC: top.pc, Static: in, Mask: execMask}

		switch in.Op {
		case isa.OpBra:
			taken := execMask
			notTaken := active &^ taken
			w.trace = append(w.trace, ti)
			switch {
			case taken == 0:
				top.pc++
			case notTaken == 0:
				top.pc = in.Target
			default:
				if in.Reconv < 0 {
					// A divergent asserted-uniform branch is an emulator
					// invariant violation — except under fault injection,
					// where an injected flip corrupting the predicate is
					// the expected cause: there it models hardware
					// detecting control-flow corruption at a .uni branch
					// and raises a trap, so the campaign exercises the
					// exception path instead of aborting the simulator.
					if e.flip.Enabled() {
						minority := taken
						if bits.OnesCount32(notTaken) < bits.OnesCount32(taken) {
							minority = notTaken
						}
						e.raise(w, blockID, excep.KindTrap, top.pc, in, minority, 0,
							fmt.Sprintf("uniform branch diverged (taken=%08x)", taken))
						return nil
					}
					return fmt.Errorf("pc %d: branch asserted warp-uniform diverged (taken=%08x)", top.pc, taken)
				}
				fall := top.pc + 1
				top.mask = active
				top.pc = in.Reconv
				w.stack = append(w.stack,
					stackEntry{pc: fall, rpc: in.Reconv, mask: notTaken},
					stackEntry{pc: in.Target, rpc: in.Reconv, mask: taken},
				)
			}
			continue

		case isa.OpExit:
			w.trace = append(w.trace, ti)
			w.exited |= execMask
			top.pc++
			continue

		case isa.OpBar:
			w.trace = append(w.trace, ti)
			top.pc++
			w.atBarrier = true
			return nil

		case isa.OpLdGlobal, isa.OpStGlobal, isa.OpAtomGlobal, isa.OpLdShared, isa.OpStShared:
			if err := e.execMem(w, in, execMask, blockID, shared, &ti); err != nil {
				return fmt.Errorf("pc %d (%v): %w", top.pc, in, err)
			}
			if w.excep != nil {
				return nil
			}
			w.trace = append(w.trace, ti)
			top.pc++
			continue

		case isa.OpAssert:
			var failed uint32
			for m := execMask; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				if e.readReg(w, lane, in.SrcA) == 0 {
					failed |= 1 << lane
				}
			}
			if failed != 0 {
				e.raise(w, blockID, excep.KindAssert, top.pc, in, failed, 0,
					fmt.Sprintf("assert %d failed on %d lane(s)", in.Imm, bits.OnesCount32(failed)))
				return nil
			}
			w.trace = append(w.trace, ti)
			top.pc++
			continue

		case isa.OpTrap:
			if execMask != 0 {
				e.raise(w, blockID, excep.KindTrap, top.pc, in, execMask, 0,
					fmt.Sprintf("trap %d", in.Imm))
				return nil
			}
			w.trace = append(w.trace, ti)
			top.pc++
			continue

		case isa.OpMalloc:
			e.execMalloc(w, in, execMask, blockID, top.pc)
			if w.excep != nil {
				return nil
			}
			w.trace = append(w.trace, ti)
			top.pc++
			continue

		default:
			for m := execMask; m != 0; m &= m - 1 {
				e.execALU(w, in, bits.TrailingZeros32(m), blockID)
			}
			w.trace = append(w.trace, ti)
			top.pc++
			continue
		}
	}
}

// raise builds the warp's exception record from its current divergence
// stack and retires the warp: the trace ends just before the faulting
// instruction, which therefore never reaches the timing pipeline, and
// the warp counts as done so block barriers release (the SM kills the
// warp the same way at delivery). lanes is the set of lanes the
// condition fired on; the report names the lowest.
func (e *Emulator) raise(w *warpCtx, blockID int, k excep.Kind, pc int32, in *isa.Instruction, lanes uint32, addr uint64, detail string) {
	frames := make([]excep.Frame, len(w.stack))
	for i, s := range w.stack {
		frames[i] = excep.Frame{PC: s.pc, RPC: s.rpc, Mask: s.mask}
	}
	if n := len(frames); n > 0 {
		// The top entry's pc is the faulting instruction itself.
		frames[n-1].PC = pc
	}
	w.excep = &excep.Record{
		Kind: k, Block: int32(blockID), Warp: int32(w.id),
		Lane: int32(bits.TrailingZeros32(lanes)),
		PC:   pc, Mnemonic: in.Op.Mnemonic(),
		Addr: addr, Detail: detail, Frames: frames,
	}
	w.done = true
}

// injectFlips applies this instruction's bit-flip decisions to the
// warp's architectural state: a source-register bit (persistent), the
// lane's participation bit (transient, the predicate flip), or — for
// memory instructions — an effective-address bit (transient, applied
// by execMem through flipAddrXor). Decisions are pure functions of the
// site, so reruns of the same seed flip identically.
func (e *Emulator) injectFlips(w *warpCtx, in *isa.Instruction, active, execMask uint32, blockID int) uint32 {
	for m := w.flipAddrMask; m != 0; m &= m - 1 {
		w.flipAddrXor[bits.TrailingZeros32(m)] = 0
	}
	w.flipAddrMask = 0
	memOp := in.IsMem()
	inst := int32(w.insts)
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		d, ok := e.flip.At(int32(blockID), int32(w.id), int32(lane), inst, w.id*32+lane, memOp)
		if !ok {
			continue
		}
		switch d.Target {
		case excep.TargetRegister:
			var srcs [4]isa.Reg
			n := 0
			for _, r := range [...]isa.Reg{in.SrcA, in.SrcB, in.SrcC, in.Pred} {
				if r != isa.RegNone && r != isa.RZ {
					srcs[n] = r
					n++
				}
			}
			if n == 0 {
				continue // no register state read here: the flip lands in unused space
			}
			w.regs[lane][srcs[int(d.Src)%n]] ^= 1 << (d.Bit & 63)
		case excep.TargetPredicate:
			execMask ^= 1 << lane
		case excep.TargetAddress:
			w.flipAddrXor[lane] ^= 1 << (d.Bit & 63)
			w.flipAddrMask |= 1 << lane
		}
		e.flips++
	}
	return execMask
}

// execMalloc serves a device-malloc instruction lane by lane; heap
// exhaustion (or a missing heap) raises KindDeviceOOM.
func (e *Emulator) execMalloc(w *warpCtx, in *isa.Instruction, mask uint32, blockID int, pc int32) {
	for m := mask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		size := in.Imm
		if in.SrcA != isa.RegNone && in.SrcA != isa.RZ {
			size = int64(e.readReg(w, lane, in.SrcA))
		}
		if e.heap == nil {
			e.raise(w, blockID, excep.KindDeviceOOM, pc, in, 1<<lane, 0,
				"device malloc without a device heap")
			return
		}
		tid := blockID*e.launch.ThreadsPerBlock() + w.id*32 + lane
		addr, err := e.heap.Alloc(tid, int(size))
		if err != nil {
			e.raise(w, blockID, excep.KindDeviceOOM, pc, in, 1<<lane, 0, err.Error())
			return
		}
		e.writeReg(w, lane, in.Dst, addr)
	}
}

func (e *Emulator) readReg(w *warpCtx, lane int, r isa.Reg) uint64 {
	if r == isa.RZ || r == isa.RegNone {
		return 0
	}
	return w.regs[lane][r]
}

func (e *Emulator) writeReg(w *warpCtx, lane int, r isa.Reg, v uint64) {
	if r == isa.RZ || r == isa.RegNone {
		return
	}
	w.regs[lane][r] = v
}

func f(v uint64) float64  { return math.Float64frombits(v) }
func fb(v float64) uint64 { return math.Float64bits(v) }
func boolVal(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (e *Emulator) execALU(w *warpCtx, in *isa.Instruction, lane, blockID int) {
	a := e.readReg(w, lane, in.SrcA)
	b := e.readReg(w, lane, in.SrcB)
	var v uint64
	switch in.Op {
	case isa.OpNop:
		return
	case isa.OpIAdd:
		v = a + b + uint64(in.Imm)
	case isa.OpISub:
		v = a - b
	case isa.OpIMul:
		if in.SrcB != isa.RZ && in.SrcB != isa.RegNone {
			v = a * b
		} else {
			v = a * uint64(in.Imm)
		}
	case isa.OpIMad:
		v = a*b + e.readReg(w, lane, in.SrcC)
	case isa.OpIMin:
		if int64(a) < int64(b) {
			v = a
		} else {
			v = b
		}
	case isa.OpIMax:
		if int64(a) > int64(b) {
			v = a
		} else {
			v = b
		}
	case isa.OpShl:
		v = a << ((b + uint64(in.Imm)) & 63)
	case isa.OpShr:
		v = a >> ((b + uint64(in.Imm)) & 63)
	case isa.OpAnd:
		if in.SrcB != isa.RZ && in.SrcB != isa.RegNone {
			v = a & b
		} else {
			v = a & uint64(in.Imm)
		}
	case isa.OpOr:
		v = a | b | uint64(in.Imm)
	case isa.OpXor:
		v = a ^ b ^ uint64(in.Imm)
	case isa.OpMov:
		if in.SrcA != isa.RegNone {
			v = a
		} else {
			v = uint64(in.Imm)
		}
	case isa.OpSetP:
		v = boolVal(icmp(in.Cmp, int64(a), int64(b)+in.Imm))
	case isa.OpFAdd:
		v = fb(f(a) + f(b))
	case isa.OpFSub:
		v = fb(f(a) - f(b))
	case isa.OpFMul:
		v = fb(f(a) * f(b))
	case isa.OpFFma:
		v = fb(math.FMA(f(a), f(b), f(e.readReg(w, lane, in.SrcC))))
	case isa.OpFMin:
		v = fb(math.Min(f(a), f(b)))
	case isa.OpFMax:
		v = fb(math.Max(f(a), f(b)))
	case isa.OpFSetP:
		v = boolVal(fcmp(in.Cmp, f(a), f(b)))
	case isa.OpI2F:
		v = fb(float64(int64(a)))
	case isa.OpF2I:
		x := f(a)
		if math.IsNaN(x) {
			v = 0
		} else {
			v = uint64(int64(x))
		}
	case isa.OpFRcp:
		v = fb(1 / f(a))
	case isa.OpFSqrt:
		v = fb(math.Sqrt(f(a)))
	case isa.OpFRsqrt:
		v = fb(1 / math.Sqrt(f(a)))
	case isa.OpFExp:
		v = fb(math.Exp2(f(a)))
	case isa.OpFLog:
		v = fb(math.Log2(f(a)))
	case isa.OpFSin:
		v = fb(math.Sin(f(a)))
	case isa.OpFCos:
		v = fb(math.Cos(f(a)))
	case isa.OpS2R:
		v = e.sreg(w, lane, isa.SReg(in.Imm), blockID)
	case isa.OpLdParam:
		v = e.launch.Kernel.Params[in.Imm]
	default:
		// Unknown ops execute as nop; Validate rejects them earlier.
		return
	}
	e.writeReg(w, lane, in.Dst, v)
}

func icmp(c isa.Cmp, a, b int64) bool {
	switch c {
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpGT:
		return a > b
	case isa.CmpGE:
		return a >= b
	}
	return false
}

func fcmp(c isa.Cmp, a, b float64) bool {
	switch c {
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpGT:
		return a > b
	case isa.CmpGE:
		return a >= b
	}
	return false
}

func (e *Emulator) sreg(w *warpCtx, lane int, s isa.SReg, blockID int) uint64 {
	bdimX := e.launch.Block.X
	if bdimX == 0 {
		bdimX = 1
	}
	gdimX := e.launch.Grid.X
	if gdimX == 0 {
		gdimX = 1
	}
	t := w.id*32 + lane
	switch s {
	case isa.SRTidX:
		return uint64(t % bdimX)
	case isa.SRTidY:
		return uint64(t / bdimX)
	case isa.SRCtaIDX:
		return uint64(blockID % gdimX)
	case isa.SRCtaIDY:
		return uint64(blockID / gdimX)
	case isa.SRNTidX:
		return uint64(bdimX)
	case isa.SRNTidY:
		y := e.launch.Block.Y
		if y == 0 {
			y = 1
		}
		return uint64(y)
	case isa.SRGridDimX:
		return uint64(gdimX)
	case isa.SRGridDimY:
		y := e.launch.Grid.Y
		if y == 0 {
			y = 1
		}
		return uint64(y)
	case isa.SRLaneID:
		return uint64(lane)
	case isa.SRWarpID:
		return uint64(w.id)
	}
	return 0
}

// coalesceArena coalesces the per-lane accesses into line addresses
// backed by the emulator's arena: the worst-case entry count is
// reserved up front so the append inside coalesce never reallocates,
// and the arena advances past the entries actually produced. Retired
// chunks stay referenced by the traces that point into them and are
// collected when those traces are dropped.
func (e *Emulator) coalesceArena(addrs *[32]uint64, mask uint32, size int) []uint64 {
	span := int(uint64(size-1)/e.lineSize) + 2
	need := 32 * span
	if cap(e.arena)-len(e.arena) < need {
		n := arenaChunk
		if need > n {
			n = need
		}
		e.arena = make([]uint64, 0, n)
	}
	dst := coalesce(e.arena[len(e.arena):len(e.arena)], addrs, mask, size, e.lineSize)
	e.arena = e.arena[:len(e.arena)+len(dst)]
	return dst
}

func (e *Emulator) execMem(w *warpCtx, in *isa.Instruction, mask uint32, blockID int, shared []byte, ti *TraceInst) error {
	size := int(in.Size)
	var addrs [32]uint64
	for m := mask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		addrs[lane] = e.readReg(w, lane, in.SrcA) + uint64(in.Imm)
	}
	for m := w.flipAddrMask & mask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		addrs[lane] ^= w.flipAddrXor[lane]
	}
	if in.IsGlobalMem() {
		for m := mask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			a := addrs[lane]
			if a < IllegalFloor {
				e.raise(w, blockID, excep.KindIllegalAddress, ti.PC, in, 1<<lane, a,
					"global access below the mapped address space")
				return nil
			}
			if a%uint64(size) != 0 {
				e.raise(w, blockID, excep.KindMisaligned, ti.PC, in, 1<<lane, a,
					fmt.Sprintf("address not %d-byte aligned", size))
				return nil
			}
			if e.AddrValid != nil && !e.AddrValid(a) {
				e.raise(w, blockID, excep.KindIllegalAddress, ti.PC, in, 1<<lane, a,
					"global access outside any mapped region")
				return nil
			}
		}
	}

	switch in.Op {
	case isa.OpLdShared, isa.OpStShared:
		for m := mask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			off := addrs[lane]
			if off+uint64(size) > uint64(len(shared)) {
				return fmt.Errorf("shared access at %d beyond %d B partition", off, len(shared))
			}
			if in.Op == isa.OpLdShared {
				var v uint64
				for i := 0; i < size; i++ {
					v |= uint64(shared[off+uint64(i)]) << (8 * i)
				}
				e.writeReg(w, lane, in.Dst, v)
			} else {
				v := e.readReg(w, lane, in.SrcB)
				for i := 0; i < size; i++ {
					shared[off+uint64(i)] = byte(v >> (8 * i))
				}
			}
		}
		if mask != 0 {
			ti.Lines = e.coalesceArena(&addrs, mask, size)
		}
		return nil

	case isa.OpLdGlobal:
		for m := mask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			e.writeReg(w, lane, in.Dst, e.mem.Read(addrs[lane], size))
		}
	case isa.OpStGlobal:
		for m := mask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			e.mem.Write(addrs[lane], size, e.readReg(w, lane, in.SrcB))
		}
	case isa.OpAtomGlobal:
		for m := mask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			v := e.readReg(w, lane, in.SrcB)
			cmp := e.readReg(w, lane, in.SrcC)
			old := e.mem.Atom(addrs[lane], size, func(o uint64) (uint64, bool) {
				switch in.Atom {
				case isa.AtomAdd:
					return o + v, true
				case isa.AtomMax:
					if int64(v) > int64(o) {
						return v, true
					}
					return o, false
				case isa.AtomMin:
					if int64(v) < int64(o) {
						return v, true
					}
					return o, false
				case isa.AtomExch:
					return v, true
				case isa.AtomCAS:
					if o == cmp {
						return v, true
					}
					return o, false
				case isa.AtomAnd:
					return o & v, true
				case isa.AtomOr:
					return o | v, true
				}
				return o, false
			})
			e.writeReg(w, lane, in.Dst, old)
		}
	default:
		return fmt.Errorf("execMem: %v is not a memory op", in.Op)
	}
	if mask != 0 {
		ti.Lines = e.coalesceArena(&addrs, mask, size)
	}
	return nil
}
