package sim

import (
	"reflect"
	"sync"
	"testing"

	"gpues/internal/ckpt"
	"gpues/internal/config"
	"gpues/internal/emu"
	"gpues/internal/excep"
	"gpues/internal/isa"
	"gpues/internal/kernel"
	"gpues/internal/vm"
)

// streamCase is one configuration the stream contract is checked
// under. One resident block per SM leaves most of the 256-block grid
// pending after the first wave, so checkpoints land both while the
// dispatcher still has blocks to hand out and after it issued them all.
type streamCase struct {
	name string
	cfg  config.Config
	spec func() LaunchSpec
}

func streamCases(t *testing.T) []streamCase {
	paging := config.Default()
	paging.Scheme = config.ReplayQueue
	paging.DemandPaging = true
	paging.Scheduler.Enabled = true
	paging.Scheduler.SwitchThreshold = 0
	paging.SM.MaxThreadBlocks = 1

	// Shielding all but four threads per block keeps the flips off the
	// address paths often enough for this seed's run to complete.
	flips := config.Default()
	flips.SM.MaxThreadBlocks = 1
	flips.Excep.Flip = excep.FlipConfig{Seed: 9, Rate: 3e-4, ProtectThreads: 124}

	return []streamCase{
		{"paging-switching", paging, func() LaunchSpec { return testSpec(t, 256, 128, vm.RegionCPUInit, vm.RegionGPUInit) }},
		{"flips", flips, func() LaunchSpec { return testSpec(t, 256, 128, vm.RegionGPUInit, vm.RegionGPUInit) }},
	}
}

func openStream(t *testing.T, cfg config.Config, spec LaunchSpec) *Stream {
	t.Helper()
	st, err := NewStream(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func newFed(t *testing.T, cfg config.Config, spec LaunchSpec, st *Stream) *Simulator {
	t.Helper()
	s, err := NewFromStream(cfg, spec, st)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// captureAt steps s to cycle at and returns its checkpoint.
func captureAt(t *testing.T, s *Simulator, at int64) *ckpt.Checkpoint {
	t.Helper()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	reached, err := s.StepTo(at)
	if err != nil {
		t.Fatal(err)
	}
	if !reached {
		t.Fatalf("run finished at cycle %d before snapshot cycle %d", s.Cycle(), at)
	}
	return s.Capture()
}

// allIssuedAt returns a cycle at which the dispatcher has issued the
// whole grid but the run has not finished.
func allIssuedAt(t *testing.T, cfg config.Config, spec LaunchSpec) int64 {
	t.Helper()
	s, err := New(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for s.disp.Issued() < spec.Launch.Blocks() {
		reached, err := s.StepTo(s.Cycle() + 16)
		if err != nil {
			t.Fatal(err)
		}
		if !reached {
			break
		}
	}
	if s.Finished() {
		t.Fatal("the run finished before a capture point with every block issued")
	}
	return s.Cycle()
}

// runPlain runs cfg on a fresh spec and returns the result and the
// post-run memory.
func runPlain(t *testing.T, cfg config.Config, spec LaunchSpec) (*Result, *emu.Memory) {
	t.Helper()
	r, err := RunSpec(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	return r, spec.Memory
}

// TestStreamCheckpointsMatchPlain pins the checkpoint contract: a run
// fed by a shared stream that has already emulated the whole grid
// captures digest-identical sections to a plain run at the same cycle —
// emu.memory included, which the fed run materializes at the dispatch
// cursor — and each checkpoint restores onto the other kind of run.
func TestStreamCheckpointsMatchPlain(t *testing.T) {
	for _, c := range streamCases(t) {
		t.Run(c.name, func(t *testing.T) {
			ref, _ := runPlain(t, c.cfg, c.spec())
			if c.cfg.Excep.Flip.Enabled() && ref.Flips == 0 {
				t.Fatal("flip-armed case injected no flips")
			}
			st := openStream(t, c.cfg, c.spec())
			if _, err := newFed(t, c.cfg, c.spec(), st).Run(); err != nil {
				t.Fatal(err)
			}
			var partial, issued bool
			for _, at := range []int64{ref.Cycles / 4, ref.Cycles / 2, allIssuedAt(t, c.cfg, c.spec())} {
				plainSim, err := New(c.cfg, c.spec())
				if err != nil {
					t.Fatal(err)
				}
				plain := captureAt(t, plainSim, at)
				fedSim := newFed(t, c.cfg, c.spec(), st)
				fed := captureAt(t, fedSim, at)
				if n := fedSim.disp.Issued(); n < c.spec().Launch.Blocks() {
					partial = true
				} else {
					issued = true
				}
				if plain.SpecFP != fed.SpecFP || plain.ConfigFP != fed.ConfigFP {
					t.Fatalf("cycle %d: fingerprints differ", at)
				}
				if len(plain.Sections) != len(fed.Sections) {
					t.Fatalf("cycle %d: %d sections vs %d", at, len(plain.Sections), len(fed.Sections))
				}
				for i, sec := range plain.Sections {
					if fed.Sections[i] != sec {
						t.Fatalf("cycle %d: section %q differs between plain and stream-fed runs", at, sec.Name)
					}
				}
				checkIdentical(t, ref, resumeFrom(t, c.cfg, c.spec, fed))
				s := newFed(t, c.cfg, c.spec(), st)
				if err := s.Restore(plain); err != nil {
					t.Fatal(err)
				}
				got, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				checkIdentical(t, ref, got)
			}
			if !partial || !issued {
				t.Fatalf("capture points missed a dispatch phase (mid-grid %v, all issued %v)", partial, issued)
			}
		})
	}
}

// TestStreamSharedRunsMatchPlain runs two simulators that differ in a
// timing-only knob concurrently off one stream and requires each to
// return exactly the plain run's Result (flips included) and to leave
// exactly the plain run's memory behind.
func TestStreamSharedRunsMatchPlain(t *testing.T) {
	for _, c := range streamCases(t) {
		t.Run(c.name, func(t *testing.T) {
			slow := c.cfg
			slow.System.DRAMLatency += 200
			cfgs := []config.Config{c.cfg, slow}
			st := openStream(t, c.cfg, c.spec())
			specs := make([]LaunchSpec, len(cfgs))
			results := make([]*Result, len(cfgs))
			errs := make([]error, len(cfgs))
			var wg sync.WaitGroup
			for i, cfg := range cfgs {
				specs[i] = c.spec()
				s := newFed(t, cfg, specs[i], st)
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[i], errs[i] = s.Run()
				}()
			}
			wg.Wait()
			for i, cfg := range cfgs {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				ref, refMem := runPlain(t, cfg, c.spec())
				if !reflect.DeepEqual(ref, results[i]) {
					t.Errorf("run %d: stream-fed result differs from plain run:\n got %+v\nwant %+v", i, results[i], ref)
				}
				if d := specs[i].Memory.Diff(refMem, 4); len(d) != 0 {
					t.Errorf("run %d: post-run memory differs from plain run: %v", i, d)
				}
			}
			if results[0].Cycles == results[1].Cycles {
				t.Error("the timing-only knob did not change cycles; the runs do not differ")
			}
		})
	}
}

// errorSpec builds a 64-block launch whose block failBlock stores to
// global memory and then makes a shared-memory access beyond its
// partition, an emulation error partway through the block.
func errorSpec(t *testing.T, failBlock int64) LaunchSpec {
	t.Helper()
	const oAddr = uint64(0x1000000)
	const blocks, threads = 64, 64
	b := kernel.NewBuilder("sharedoob")
	b.SetSharedMem(256)
	po := b.AddParam(oAddr)
	tid, ctaid, ntid := b.Reg(), b.Reg(), b.Reg()
	gid, off, base, bad := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.S2R(tid, isa.SRTidX)
	b.S2R(ctaid, isa.SRCtaIDX)
	b.S2R(ntid, isa.SRNTidX)
	b.IMad(gid, ctaid, ntid, tid)
	b.Shl(off, gid, 3)
	b.LoadParam(base, po)
	b.IAdd(base, base, off, 0)
	b.StGlobal(base, 0, gid, 8)
	b.SetP(isa.CmpEQ, bad, ctaid, isa.RZ, failBlock)
	b.Shl(bad, bad, 20)
	b.StShared(bad, 0, gid, 4)
	b.Exit()
	return LaunchSpec{
		Launch: &kernel.Launch{Kernel: b.MustBuild(), Grid: kernel.Dim3{X: blocks}, Block: kernel.Dim3{X: threads}},
		Memory: emu.NewMemory(),
		Regions: []vm.Region{
			{Name: "out", Base: oAddr, Size: blocks * threads * 8, Kind: vm.RegionGPUInit},
		},
	}
}

// TestStreamEmulationErrorSameDispatch requires an emulation error at
// block k to end a plain run and two stream-fed runs (the one that hit
// it in the stream and one that reads it back) at the same cycle, with
// the same error, after issuing the same blocks, and to leave the same
// memory — the failed block's partial stores included.
func TestStreamEmulationErrorSameDispatch(t *testing.T) {
	const failBlock = 40
	cfg := config.Default()
	cfg.SM.MaxThreadBlocks = 2
	type outcome struct {
		err    string
		cycle  int64
		issued int
		mem    *emu.Memory
	}
	run := func(s *Simulator, spec LaunchSpec) outcome {
		_, err := s.Run()
		if err == nil {
			t.Fatal("run completed despite the emulation error")
		}
		return outcome{err.Error(), s.Cycle(), s.disp.Issued(), spec.Memory}
	}
	spec := errorSpec(t, failBlock)
	plainSim, err := New(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	want := run(plainSim, spec)
	if want.issued != failBlock {
		t.Fatalf("plain run issued %d blocks, want %d", want.issued, failBlock)
	}
	st := openStream(t, cfg, errorSpec(t, failBlock))
	for i := 0; i < 2; i++ {
		spec := errorSpec(t, failBlock)
		got := run(newFed(t, cfg, spec, st), spec)
		if got.err != want.err || got.cycle != want.cycle || got.issued != want.issued {
			t.Errorf("fed run %d failed with %q at cycle %d after %d blocks; plain run %q at cycle %d after %d",
				i, got.err, got.cycle, got.issued, want.err, want.cycle, want.issued)
		}
		if d := got.mem.Diff(want.mem, 4); len(d) != 0 {
			t.Errorf("fed run %d: memory differs from plain run: %v", i, d)
		}
	}
}

// TestNewFromStreamRejectsMismatch keeps a stream from feeding a run
// whose launch or emulation config differs from the stream's.
func TestNewFromStreamRejectsMismatch(t *testing.T) {
	cfg := config.Default()
	st := openStream(t, cfg, testSpec(t, 4, 64, vm.RegionGPUInit, vm.RegionGPUInit))
	if _, err := NewFromStream(cfg, testSpec(t, 8, 64, vm.RegionGPUInit, vm.RegionGPUInit), st); err == nil {
		t.Error("a stream fed a launch with a different grid")
	}
	flipped := cfg
	flipped.Excep.Flip = excep.FlipConfig{Seed: 1, Rate: 1e-3}
	if _, err := NewFromStream(flipped, testSpec(t, 4, 64, vm.RegionGPUInit, vm.RegionGPUInit), st); err == nil {
		t.Error("a stream fed a run with a different flip config")
	}
	lines := cfg
	lines.SM.L1LineB = 64
	if _, err := NewFromStream(lines, testSpec(t, 4, 64, vm.RegionGPUInit, vm.RegionGPUInit), st); err == nil {
		t.Error("a stream fed a run with a different coalescing line size")
	}
}

// TestFingerprintSpecCoversLaunch changes each launch input that
// emulation or timing reads, one at a time, and requires the spec
// fingerprint to change with it.
func TestFingerprintSpecCoversLaunch(t *testing.T) {
	base := func() LaunchSpec {
		s := testSpec(t, 8, 64, vm.RegionGPUInit, vm.RegionGPUInit)
		s.Launch.HeapBase, s.Launch.HeapBytes = 0x8000000, 1<<20
		return s
	}
	want := FingerprintSpec(base())
	if FingerprintSpec(base()) != want {
		t.Fatal("fingerprint is not deterministic")
	}
	mutations := map[string]func(*LaunchSpec){
		"params":         func(s *LaunchSpec) { s.Launch.Kernel.Params[0] += 8 },
		"regs/thread":    func(s *LaunchSpec) { s.Launch.Kernel.RegsPerThread++ },
		"shared memory":  func(s *LaunchSpec) { s.Launch.Kernel.SharedMemBytes += 128 },
		"grid shape":     func(s *LaunchSpec) { s.Launch.Grid = kernel.Dim3{X: 4, Y: 2} },
		"block shape":    func(s *LaunchSpec) { s.Launch.Block = kernel.Dim3{X: 32, Y: 2} },
		"heap base":      func(s *LaunchSpec) { s.Launch.HeapBase += 4096 },
		"heap size":      func(s *LaunchSpec) { s.Launch.HeapBytes *= 2 },
		"kernel name":    func(s *LaunchSpec) { s.Launch.Kernel.Name += "2" },
		"region":         func(s *LaunchSpec) { s.Regions[0].Size *= 2 },
		"memory content": func(s *LaunchSpec) { s.Memory.WriteU64(0x1000000, 99) },
	}
	// Every field of every instruction is part of the code's contents.
	fields := reflect.TypeOf(isa.Instruction{}).NumField()
	for f := 0; f < fields; f++ {
		name := "code." + reflect.TypeOf(isa.Instruction{}).Field(f).Name
		mutations[name] = func(s *LaunchSpec) {
			code := append([]isa.Instruction(nil), s.Launch.Kernel.Code...)
			v := reflect.ValueOf(&code[len(code)/2]).Elem().Field(f)
			switch v.Kind() {
			case reflect.Bool:
				v.SetBool(!v.Bool())
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				v.SetInt(v.Int() + 1)
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				v.SetUint(v.Uint() + 1)
			default:
				t.Fatalf("instruction field %s has unhandled kind %v", name, v.Kind())
			}
			s.Launch.Kernel.Code = code
		}
	}
	for name, mutate := range mutations {
		s := base()
		k := *s.Launch.Kernel
		k.Params = append([]uint64(nil), k.Params...)
		l := *s.Launch
		l.Kernel = &k
		s.Launch = &l
		mutate(&s)
		if FingerprintSpec(s) == want {
			t.Errorf("changing %s left the spec fingerprint unchanged", name)
		}
	}
	// The old fingerprint hashed only the block count: 4x2 and 8x1
	// grids collided.
	a, b := base(), base()
	a.Launch.Grid = kernel.Dim3{X: 4, Y: 2}
	b.Launch.Grid = kernel.Dim3{X: 8, Y: 1}
	if FingerprintSpec(a) == FingerprintSpec(b) {
		t.Error("4x2 and 8x1 grids share a fingerprint")
	}
}
