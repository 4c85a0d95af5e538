package sim

import (
	"fmt"
	"math"
	"sync"

	"gpues/internal/ckpt"
	"gpues/internal/config"
	"gpues/internal/emu"
)

// Stream is the functional half of two-phase execution for one launch:
// one emulator that produces block traces strictly in block-index
// order, the order the dispatcher hands blocks out. A block's trace
// depends only on the launch image, the flip config and the blocks
// before it, never on timing, so simulators that differ only in what
// the timing model sees can consume one stream.
//
// Every Simulator draws its blocks from a stream. New gives it a
// private stream that emulates against spec.Memory itself and hands
// each trace out once. NewStream opens a shared stream over a private
// clone of the initial image that keeps every block's trace, cumulative
// flip count and error until it is dropped; NewFromStream feeds a
// simulator from it. A stream is safe for concurrent use.
type Stream struct {
	key    uint64
	shared bool

	mu   sync.Mutex
	emul *emu.Emulator
	// traces[k] is block k's trace (nil once handed out on a private
	// stream); flips[k] is the cumulative flip count after block k's
	// emulation, including a failed last block's partial count; err is
	// the emulation error of block len(traces), which ends the stream.
	traces []*emu.BlockTrace
	flips  []int64
	err    error
}

// NewStream opens a shared trace stream for the launch under cfg. It
// emulates against a clone of spec.Memory taken now, so call it before
// anything runs on that memory. Simulators built with NewFromStream
// for any configuration and spec with the same stream key (the launch
// fingerprint plus cfg.Excep.Flip and cfg.SM.L1LineB) time its traces.
func NewStream(cfg config.Config, spec LaunchSpec) (*Stream, error) {
	if spec.Launch == nil || spec.Memory == nil {
		return nil, fmt.Errorf("sim: launch spec needs a kernel launch and memory")
	}
	return newStream(cfg, spec, FingerprintSpec(spec), spec.Memory.Clone(), true)
}

// newStream builds a stream emulating against mem; shared streams keep
// the traces they hand out.
func newStream(cfg config.Config, spec LaunchSpec, specFP uint64, mem *emu.Memory, shared bool) (*Stream, error) {
	e, err := emu.New(spec.Launch, mem, cfg.SM.L1LineB)
	if err != nil {
		return nil, err
	}
	e.ConfigureFlips(cfg.Excep.Flip)
	e.AddrValid = regionChecker(spec.Regions)
	return &Stream{key: streamKey(specFP, cfg, e.MaxWarpInsts), shared: shared, emul: e}, nil
}

// streamKey identifies the trace sequence a stream produces: the launch
// fingerprint plus every emulator input outside the spec.
func streamKey(specFP uint64, cfg config.Config, maxWarpInsts int) uint64 {
	h := ckpt.NewHasher()
	h.U64(specFP)
	h.U64(uint64(cfg.Excep.Flip.Seed))
	h.U64(math.Float64bits(cfg.Excep.Flip.Rate))
	h.U64(uint64(cfg.Excep.Flip.ProtectThreads))
	h.U64(uint64(cfg.SM.L1LineB))
	h.U64(uint64(maxWarpInsts))
	return h.Sum()
}

// block returns block k's trace, emulating every block up to k first.
// Consumers ask for blocks in index order, so k is at most one past the
// blocks emulated so far; an emulation error is returned for its block
// and every later one.
func (st *Stream) block(k int) (*emu.BlockTrace, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for len(st.traces) <= k && st.err == nil {
		bt, err := st.emul.EmulateBlock(len(st.traces))
		st.flips = append(st.flips, st.emul.Flips())
		if err != nil {
			st.err = err
			break
		}
		st.traces = append(st.traces, bt)
	}
	if k >= len(st.traces) {
		return nil, st.err
	}
	bt := st.traces[k]
	if !st.shared {
		st.traces[k] = nil
	}
	return bt, nil
}

// flipsAt returns the flips injected while emulating the first n
// blocks.
func (st *Stream) flipsAt(n int) int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	if n = min(n, len(st.flips)); n == 0 {
		return 0
	}
	return st.flips[n-1]
}

// copyFinal copies the stream's image after the whole grid into mem.
// Valid once every block has been emulated.
func (st *Stream) copyFinal(mem *emu.Memory) {
	st.mu.Lock()
	defer st.mu.Unlock()
	mem.CopyFrom(st.emul.Memory())
}

// syncMemory brings spec.Memory to the dispatch cursor: the image after
// every issued block, plus a failed block's partial effects when
// dispatch stopped on an emulation error. A private stream emulates
// against spec.Memory itself, so it is always there. A shared-stream
// run copies in the stream's final image once the whole grid is
// issued, and before that emulates the missing blocks again on its own
// catch-up emulator. Emulation is deterministic, so the catch-up
// reproduces the stream's blocks exactly; a failure here means it
// does not, and is reported as a divergence.
func (s *Simulator) syncMemory() error {
	st := s.stream
	if !st.shared {
		return nil
	}
	target := s.disp.Issued()
	failed := s.disp.Err() != nil
	if !failed && target == s.spec.Launch.Blocks() {
		if s.caughtUp < target {
			st.copyFinal(s.spec.Memory)
			s.caughtUp = target
		}
		return nil
	}
	if failed {
		target++ // the failed block's partial effects are part of the image
	}
	for ; s.caughtUp < target; s.caughtUp++ {
		if s.catchUp == nil {
			e, err := emu.New(s.spec.Launch, s.spec.Memory, s.cfg.SM.L1LineB)
			if err != nil {
				return err
			}
			e.ConfigureFlips(s.cfg.Excep.Flip)
			e.AddrValid = regionChecker(s.spec.Regions)
			e.MaxWarpInsts = st.emul.MaxWarpInsts
			s.catchUp = e
		}
		_, err := s.catchUp.EmulateBlock(s.caughtUp)
		if want := failed && s.caughtUp == target-1; (err != nil) != want {
			return &DivergenceError{Component: "emu.memory", Cycle: s.q.Now()}
		}
	}
	return nil
}
