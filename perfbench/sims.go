package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpues/internal/ckpt"
	"gpues/internal/emu"
	"gpues/internal/experiments"
	"gpues/internal/sim"
)

// stepSlice is the StepTo granularity of traced runs, the fabric
// worker's default renewal slice.
const stepSlice = 50_000

// steppedCell is a cell a traced run simulated in StepTo slices.
type steppedCell struct {
	c   cell
	res *sim.Result
}

// runCell simulates one cell the way gpusim does: build the image,
// construct the simulator, run it. Traced, the run advances in fixed
// StepTo slices so each slice is a span, and the cell joins the set the
// emulation and checkpoint passes cover.
func (b *bench) runCell(c cell, run string, parent int) (*sim.Result, error) {
	id := b.tr.begin("workloads.build", run, parent)
	cfg, spec, err := c.Build()
	b.tr.end(id)
	if err != nil {
		return nil, err
	}
	id = b.tr.begin("sim.new", run, parent)
	s, err := sim.New(cfg, spec)
	b.tr.end(id)
	if err != nil {
		return nil, err
	}
	if b.tr == nil {
		return s.Run()
	}
	// The run loop is one span, so no emulation the simulator does
	// falls outside it: Start, which fills every SM with its first
	// blocks and so emulates them, the StepTo slices and the finishing
	// Run.
	loop := b.tr.begin("sim.run", run, parent)
	r, err := b.stepRun(s, run, loop)
	b.tr.end(loop)
	if err != nil {
		return nil, err
	}
	b.stepped = append(b.stepped, steppedCell{c: c, res: r})
	return r, nil
}

// stepRun runs a constructed simulator to completion in stepSlice
// StepTo slices, each a span.
func (b *bench) stepRun(s *sim.Simulator, run string, parent int) (*sim.Result, error) {
	id := b.tr.begin("sim.start", run, parent)
	err := s.Start()
	b.tr.end(id)
	if err != nil {
		return nil, err
	}
	for {
		id = b.tr.begin("sim.step", run, parent)
		reached, err := s.StepTo(s.Cycle() + stepSlice)
		b.tr.end(id)
		if err != nil {
			return nil, err
		}
		if !reached {
			break
		}
	}
	id = b.tr.begin("sim.finish", run, parent)
	defer b.tr.end(id)
	return s.Run()
}

// checkedCell runs a cell and checks it against the table; any error
// or mismatch is recorded as a failed operation.
func (b *bench) checkedCell(c cell, run string, parent int) (*sim.Result, bool) {
	b.attempted++
	r, err := b.runCell(c, run, parent)
	if err == nil {
		err = b.exp.checkResult(c, r)
	}
	if err != nil {
		b.fail(fmt.Errorf("%s: %w", cellKey(c), err))
		return nil, false
	}
	return r, true
}

// faultSequence runs every fault cell once, one at a time, in an order
// the seed draws.
func (b *bench) faultSequence(i int) unitResult {
	cells := permute(b.cells.faults(), b.rng(i))
	run := fmt.Sprintf("sequence-%d", i)
	root := b.tr.begin("faultruns.sequence", run, 0)
	defer b.tr.end(root)
	var u unitResult
	start := time.Now()
	for _, c := range cells {
		t0 := time.Now()
		r, ok := b.checkedCell(c, run+"/"+cellKey(c), root)
		if !ok {
			continue
		}
		u.latencies = append(u.latencies, time.Since(t0).Seconds())
		u.cycles += r.Cycles
		u.insts += r.Committed
		u.jobs++
		u.verified++
	}
	u.wall = time.Since(start).Seconds()
	return u
}

// campaign runs the Figure 10 campaign once through its entry point,
// with the benchmark order the seed draws.
func (b *bench) campaign(i int) unitResult {
	benches := permute(b.cells.fig10Benches, b.rng(i))
	run := fmt.Sprintf("campaign-%d", i)
	root := b.tr.begin("experiments.fig10", run, 0)
	var mu sync.Mutex
	var done []float64
	cycles := map[string]int64{}
	start := time.Now()
	res, err := experiments.Fig10(experiments.Options{
		Scale:       1,
		Benchmarks:  benches,
		Parallelism: parallelism,
		Progress: func(line string) {
			// "<bench> <scheme> <cycles> cycles", one per finished run.
			f := strings.Fields(line)
			if len(f) < 3 {
				return
			}
			n, err := strconv.ParseInt(f[2], 10, 64)
			if err != nil {
				return
			}
			mu.Lock()
			cycles[f[0]+"|"+f[1]] = n
			mu.Unlock()
		},
		CampaignProgress: func(int, int, string) {
			t := time.Since(start).Seconds()
			mu.Lock()
			done = append(done, t)
			mu.Unlock()
		},
	})
	wall := time.Since(start).Seconds()
	b.tr.end(root)
	// The job is the figure: its latency is the campaign's wall time.
	// A cell's latency is not observable from outside the campaign (its
	// start is not reported), and the time until it completed depends
	// on the order the seed draws.
	u := unitResult{wall: wall, latencies: []float64{wall}, campaignDone: done}
	cells := cellSet{fig10Benches: benches}.fig10()
	b.attempted += len(cells)
	if err != nil {
		b.fail(fmt.Errorf("fig10 campaign: %w", err))
		return u
	}
	failed := len(b.failures)
	for _, c := range cells {
		got, ok := cycles[c.Benchmark+"|"+c.Scheme]
		want := b.exp.Cells[cellKey(c)]
		if !ok || got != want.Cycles {
			b.fail(fmt.Errorf("%s: campaign reported %d cycles, expected %d", cellKey(c), got, want.Cycles))
			continue
		}
		u.cycles += got
		u.insts += want.Committed
	}
	for _, msg := range b.exp.checkFig10(res) {
		b.fail(fmt.Errorf("%s", msg))
	}
	if len(b.failures) == failed {
		u.jobs, u.verified = 1, 1
	}
	b.fig10Result = res
	return u
}

// emuPass emulates every block of a fresh image of each stepped cell,
// timing the emulator on its own.
func (b *bench) emuPass() {
	alloc0 := totalAllocMB()
	var insts int64
	for _, sc := range b.stepped {
		run := "emu/" + cellKey(sc.c)
		cfg, spec, err := sc.c.Build()
		if err != nil {
			b.fail(fmt.Errorf("%s: %w", run, err))
			continue
		}
		id := b.tr.begin("emu.new", run, 0)
		e, err := emu.New(spec.Launch, spec.Memory, cfg.SM.L1LineB)
		b.tr.end(id)
		if err != nil {
			b.fail(fmt.Errorf("%s: %w", run, err))
			continue
		}
		id = b.tr.begin("emu.blocks", run, 0)
		var n int64
		for blk := 0; blk < spec.Launch.Blocks() && err == nil; blk++ {
			var bt *emu.BlockTrace
			if bt, err = e.EmulateBlock(blk); err == nil {
				for _, w := range bt.Warps {
					n += int64(len(w.Insts))
				}
			}
		}
		b.tr.end(id)
		if err == nil && n != sc.res.Committed {
			err = fmt.Errorf("emulated %d warp instructions, the run committed %d", n, sc.res.Committed)
		}
		if err != nil {
			b.fail(fmt.Errorf("%s: %w", run, err))
		}
		insts += n
	}
	b.emuInsts = insts
	b.emuAllocMB = totalAllocMB() - alloc0
}

// ckptPass checkpoints every second stepped cell half way, round-trips
// the checkpoint through its encoding, restores it onto a fresh
// simulator and runs that to completion, which must match the table.
func (b *bench) ckptPass() {
	for i, sc := range b.stepped {
		if i%2 != 0 {
			continue
		}
		b.attempted++
		if err := b.ckptCell(sc.c); err != nil {
			b.fail(fmt.Errorf("ckpt %s: %w", cellKey(sc.c), err))
		}
	}
}

func (b *bench) ckptCell(c cell) error {
	run := "ckpt/" + cellKey(c)
	mid := b.exp.Cells[cellKey(c)].Cycles / 2
	cfg, spec, err := c.Build()
	if err != nil {
		return err
	}
	s, err := sim.New(cfg, spec)
	if err != nil {
		return err
	}
	if err := s.Start(); err != nil {
		return err
	}
	if reached, err := s.StepTo(mid); err != nil || !reached {
		return fmt.Errorf("stepping to cycle %d: reached=%v err=%v", mid, reached, err)
	}
	id := b.tr.begin("ckpt.capture", run, 0)
	ck := s.Capture()
	b.tr.end(id)
	id = b.tr.begin("ckpt.encode", run, 0)
	data := ck.Encode()
	b.tr.end(id)
	id = b.tr.begin("ckpt.decode", run, 0)
	ck2, err := ckpt.Decode(data)
	b.tr.end(id)
	if err != nil {
		return err
	}
	b.ckptBytes = append(b.ckptBytes, float64(len(data)))
	cfg, spec, err = c.Build()
	if err != nil {
		return err
	}
	s2, err := sim.New(cfg, spec)
	if err != nil {
		return err
	}
	id = b.tr.begin("sim.restore", run, 0)
	err = s2.Restore(ck2)
	b.tr.end(id)
	if err != nil {
		return err
	}
	r, err := s2.Run()
	if err != nil {
		return err
	}
	return b.exp.checkResult(c, r)
}

// setupPass builds every distinct cell's image and constructs its
// simulator, the set-up work a run of the workload does before its
// first cycle.
func setupPass(cells []cell) (float64, error) {
	start := time.Now()
	for _, c := range cells {
		cfg, spec, err := c.Build()
		if err != nil {
			return 0, err
		}
		if _, err := sim.New(cfg, spec); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds(), nil
}

// rng returns the generator for the i-th unit of work of this run.
func (b *bench) rng(i int) *rand.Rand {
	return rand.New(rand.NewSource(b.opt.seed*1_000_003 + int64(i)))
}
