// Package sim assembles the full GPU system of Figure 1 — SMs with
// private L1 caches and TLBs, the shared L2 cache and L2 TLB, the fill
// unit, DRAM, the CPU-GPU interconnect, the CPU driver and the
// exception support — and runs one kernel launch to completion,
// cycle by cycle.
package sim

import (
	"fmt"

	"gpues/internal/cache"
	"gpues/internal/chaos"
	"gpues/internal/clock"
	"gpues/internal/config"
	"gpues/internal/core"
	"gpues/internal/dram"
	"gpues/internal/emu"
	"gpues/internal/host"
	"gpues/internal/interconnect"
	"gpues/internal/kernel"
	"gpues/internal/obs"
	"gpues/internal/sm"
	"gpues/internal/tlb"
	"gpues/internal/vm"
)

// LaunchSpec is everything needed to run one kernel: the launch, the
// functional memory holding its data, and the registered virtual
// memory regions with their initial placement.
type LaunchSpec struct {
	Launch  *kernel.Launch
	Memory  *emu.Memory
	Regions []vm.Region
}

// Result summarizes one simulated kernel execution.
type Result struct {
	Cycles int64
	// Per-component statistics.
	SMs        []sm.Stats
	L2         cache.Stats
	L2TLB      tlb.Stats
	DRAM       dram.Stats
	Link       interconnect.Stats
	LinkUtil   float64
	CPUFaults  host.FaultStats
	FaultUnit  core.Stats
	Local      core.LocalStats
	WalkFaults int64
	Walks      int64
	// InjectedFaults counts walk faults a chaos plan injected (included
	// in WalkFaults).
	InjectedFaults int64
	// Exceptions counts device-exception records delivered to the host
	// exception board (a completed run can carry a nonzero count only
	// when the board drained after the grid finished).
	Exceptions int64
	// Flips counts architectural bit flips the resilience campaign
	// injected during functional emulation.
	Flips int64
	// Derived totals.
	Committed int64
	Blocks    int
	// Occupancy aggregates blocks-per-SM across all SMs (they can
	// differ when a launch does not fill the machine). Occupancy is the
	// maximum — the launch's nominal blocks/SM.
	Occupancy     int
	OccupancyMin  int
	OccupancyMean float64
	// Stalls is the GPU-wide stall breakdown (per-SM breakdowns summed).
	Stalls obs.StallBreakdown
	// Metrics is the full registry snapshot: component counters plus the
	// fault-latency and occupancy histograms.
	Metrics obs.Snapshot
	// Series is the sampled telemetry series (a zero view unless
	// Config.SampleEvery was positive).
	Series obs.SeriesView
}

// IPC returns committed warp instructions per cycle across the GPU.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Committed) / float64(r.Cycles)
}

// Simulator is a one-shot full-system simulation of a kernel launch.
type Simulator struct {
	cfg  config.Config
	spec LaunchSpec

	q      *clock.Queue
	as     *vm.AddressSpace
	board  *host.ExcepBoard
	disp   *host.Dispatcher
	fu     *tlb.FillUnit
	l2tlb  *tlb.TLB
	l2     *cache.Cache
	mem    *dram.DRAM
	link   *interconnect.Link
	cpu    *host.FaultService
	funit  *core.FaultUnit
	local  *core.LocalHandler
	sms    []*sm.SM
	l1s    []*cache.Cache
	l1tlbs []*tlb.TLB

	// stream supplies the block traces (see stream.go). On a shared
	// stream spec.Memory lags the dispatch cursor: its first caughtUp
	// blocks have been applied, by the catchUp emulator or by copying
	// the stream's final image, and syncMemory applies the rest.
	stream   *Stream
	catchUp  *emu.Emulator
	caughtUp int

	// MaxCycles aborts runaway simulations (hard bound; the progress
	// watchdog normally fires far earlier).
	MaxCycles int64

	// progressWindow is the watchdog window (0 disables the watchdog).
	progressWindow int64

	// chaos, when attached, is the active injection plan; sweepEvery and
	// nextSweep schedule the periodic invariant sweep it enables.
	chaos      *chaos.Plan
	sweepEvery int64
	nextSweep  int64

	// active is the runnable-SM bitset (bit i set when sms[i] may need a
	// tick). Bits are set by each SM's wake hook when an event callback
	// wakes it, and cleared by the main loop when the SM reports itself
	// idle or done, so quiescent SMs cost nothing per cycle.
	active []uint64

	// workers is the tick-phase worker count from Config.Workers; with
	// workers >= 2 StepTo shards the SM tick sweep across that many
	// goroutines (see parallel.go), bit-identical to sequential.
	// ledgers and tickRes are the per-SM staging buffers and outcome
	// slots, allocated on first parallel use and reused across calls.
	workers int
	ledgers []sm.Ledger
	tickRes []uint8
	// parTicks counts tick phases run through the worker barrier
	// (diagnostic; see ParallelTicks).
	parTicks int64

	// reg holds the metrics registry; tracer is the attached event
	// tracer (nil unless AttachTracer was called).
	reg    *obs.Registry
	tracer *obs.Tracer

	// sampler is the interval telemetry sampler (nil unless
	// Config.SampleEvery > 0); nextSample is the cycle at or after
	// which the next sample is due. sink, when attached, receives
	// telemetry snapshots every sinkEvery cycles (see telemetry.go).
	sampler     *obs.Sampler
	nextSample  int64
	sink        TelemetrySink
	sinkEvery   int64
	nextPublish int64

	// CheckpointEvery, when positive with CheckpointDir set, writes a
	// checkpoint into CheckpointDir every that-many cycles (at the next
	// cycle boundary the main loop reaches). Checkpoint writing never
	// schedules events, so a checkpointed run is bit-identical to an
	// uncheckpointed one.
	CheckpointEvery int64
	// CheckpointDir is where periodic and stall checkpoints land.
	CheckpointDir string

	// started marks that Start has seeded the launch; lastNow and wd
	// carry the main loop's progress tracking across StepTo calls.
	started bool
	lastNow int64
	wd      *watchdog
	// nextCkpt is the cycle at or after which the next periodic
	// checkpoint is due; replaying suppresses checkpoint writes while
	// RestoreFrom replays up to the checkpoint cycle.
	nextCkpt  int64
	replaying bool

	// cfgFP and specFP fingerprint the configuration and launch spec; a
	// checkpoint only restores onto a simulator with matching prints.
	cfgFP  uint64
	specFP uint64

	// nonces are per-component divergence counters folded into each
	// component's checkpoint section; InjectDivergence bumps one at a
	// chosen cycle (via perturbs) to seed an artificial state
	// divergence for bisection tests without touching timing.
	nonces   map[string]uint64
	perturbs map[int64][]string
}

// DefaultMaxCycles bounds a single kernel simulation.
const DefaultMaxCycles = 2_000_000_000

// New wires up a simulator for the spec under the configuration. It
// emulates the launch's blocks itself, against spec.Memory, as it
// dispatches them.
func New(cfg config.Config, spec LaunchSpec) (*Simulator, error) {
	return newSimulator(cfg, spec, nil)
}

// NewFromStream wires up a simulator that times the shared stream's
// block traces instead of emulating them. cfg and spec must have the
// stream's key; spec.Memory must hold the same initial image the
// stream was opened on and stays this run's own: it reaches the
// dispatch cursor on Capture and the final image when Run completes.
func NewFromStream(cfg config.Config, spec LaunchSpec, st *Stream) (*Simulator, error) {
	if st == nil {
		return nil, fmt.Errorf("sim: NewFromStream needs a stream")
	}
	return newSimulator(cfg, spec, st)
}

func newSimulator(cfg config.Config, spec LaunchSpec, st *Stream) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if spec.Launch == nil || spec.Memory == nil {
		return nil, fmt.Errorf("sim: launch spec needs a kernel launch and memory")
	}
	if err := spec.Launch.Kernel.Validate(); err != nil {
		return nil, err
	}

	s := &Simulator{cfg: cfg, spec: spec, q: clock.New(), MaxCycles: DefaultMaxCycles,
		progressWindow: DefaultProgressWindow, workers: cfg.Workers}
	if cfg.MaxCycles > 0 {
		s.MaxCycles = cfg.MaxCycles
	}
	switch {
	case cfg.ProgressWindow > 0:
		s.progressWindow = cfg.ProgressWindow
	case cfg.ProgressWindow < 0:
		s.progressWindow = 0
	}

	// Virtual memory substrate.
	as, err := vm.NewAddressSpace(cfg.System.PageSize,
		uint64(cfg.System.GPUMemoryMB)<<20, uint64(cfg.System.CPUMemoryMB)<<20)
	if err != nil {
		return nil, err
	}
	for _, r := range spec.Regions {
		if err := as.AddRegion(r); err != nil {
			return nil, err
		}
	}
	s.as = as

	// Memory hierarchy: DRAM <- L2 <- per-SM L1s.
	s.mem, err = dram.New(s.q, int64(cfg.System.DRAMLatency), cfg.BytesPerCycle(), cfg.System.L2LineB)
	if err != nil {
		return nil, err
	}
	s.l2, err = cache.New(cache.Config{
		Name:    "L2",
		SizeKB:  cfg.System.L2SizeKB,
		Ways:    cfg.System.L2Ways,
		LineB:   cfg.System.L2LineB,
		MSHRs:   cfg.System.L2MSHRs,
		Latency: int64(cfg.System.L2Latency),
		Policy:  cache.WriteBack,
	}, s.q, s.mem)
	if err != nil {
		return nil, err
	}

	// Translation hierarchy: fill unit <- L2 TLB <- per-SM L1 TLBs.
	s.fu, err = tlb.NewFillUnit(s.q, cfg.System.PTWalkers, int64(cfg.System.WalkLatency),
		func(pageVA uint64) tlb.Result {
			k := as.Classify(pageVA)
			if k == vm.FaultNone {
				return tlb.Result{Present: true}
			}
			return tlb.Result{Fault: k}
		})
	if err != nil {
		return nil, err
	}
	s.l2tlb, err = tlb.New(tlb.Config{
		Name:    "L2TLB",
		Entries: cfg.System.L2TLBEntries,
		Ways:    cfg.System.L2TLBWays,
		MSHRs:   cfg.System.L2TLBMSHRs,
		Latency: int64(cfg.System.L2TLBLatency),
	}, cfg.System.PageSize, s.q, s.fu)
	if err != nil {
		return nil, err
	}

	// Host side: interconnect, CPU fault service, exception unit.
	s.link, err = interconnect.New(cfg.Link.Kind.String(), s.q, cfg.Link.DuplexChannels)
	if err != nil {
		return nil, err
	}
	s.cpu, err = host.NewFaultService(s.q, s.link, as, cfg.System.FaultGranularity,
		cfg.Link.FaultCosts, cfg.Cycles)
	if err != nil {
		return nil, err
	}
	if cfg.Local.Enabled {
		s.local, err = core.NewLocalHandler(s.q, as, cfg.System.NumSMs,
			cfg.System.FaultGranularity, cfg.Cycles(cfg.Link.FaultCosts.GPUHandleUS),
			cfg.Local.Concurrency)
		if err != nil {
			return nil, err
		}
	}
	var localResolver core.Resolver
	if s.local != nil {
		localResolver = s.local
	}
	s.funit, err = core.NewFaultUnit(s.q, cfg.System.FaultGranularity, s.cpu, localResolver)
	if err != nil {
		return nil, err
	}

	// Functional emulation and block dispatch. The spec fingerprint
	// covers the initial memory image, so take it before any block is
	// emulated.
	s.specFP = FingerprintSpec(spec)
	if st == nil {
		st, err = newStream(cfg, spec, s.specFP, spec.Memory, false)
		if err != nil {
			return nil, err
		}
	} else if st.key != streamKey(s.specFP, cfg, emu.DefaultMaxWarpInsts) {
		return nil, fmt.Errorf("sim: launch spec or emulation config does not match the trace stream")
	}
	s.stream = st
	s.disp, err = host.NewDispatcher(spec.Launch.Blocks(), st.block)
	if err != nil {
		return nil, err
	}
	// Host-mapped exception flag, polled at API-call granularity.
	s.board = host.NewExcepBoard(s.q, cfg.Excep.PollEvery)

	// SMs with private L1 cache and TLB.
	s.sms = make([]*sm.SM, cfg.System.NumSMs)
	for i := range s.sms {
		l1, err := cache.New(cache.Config{
			Name:    fmt.Sprintf("L1.%d", i),
			SizeKB:  cfg.SM.L1SizeKB,
			Ways:    cfg.SM.L1Ways,
			LineB:   cfg.SM.L1LineB,
			MSHRs:   cfg.SM.L1MSHRs,
			Latency: int64(cfg.SM.L1Latency),
			Policy:  cache.WriteThrough,
		}, s.q, s.l2)
		if err != nil {
			return nil, err
		}
		l1tlb, err := tlb.New(tlb.Config{
			Name:    fmt.Sprintf("L1TLB.%d", i),
			Entries: cfg.SM.L1TLBSize,
			Ways:    cfg.SM.L1TLBWays,
			Latency: int64(cfg.SM.L1TLBLat),
		}, cfg.System.PageSize, s.q, s.l2tlb)
		if err != nil {
			return nil, err
		}
		s.sms[i] = sm.New(i, &s.cfg, s.q, l1, l1tlb, s.funit, s.disp, contextMover{s.mem})
		s.sms[i].SetExcepSink(s.board)
		s.l1s = append(s.l1s, l1)
		s.l1tlbs = append(s.l1tlbs, l1tlb)
	}
	s.active = make([]uint64, (len(s.sms)+63)/64)
	for i := range s.sms {
		w, bit := i>>6, uint(i)&63
		s.sms[i].SetWakeHook(func() { s.active[w] |= 1 << bit })
	}
	s.registerMetrics()
	if cfg.SampleEvery > 0 {
		// Build after registerMetrics: the sampler freezes its column
		// set over the instruments registered so far.
		s.sampler = obs.NewSampler(cfg.SampleEvery, s.reg)
	}
	s.nonces = make(map[string]uint64)
	// Neither the worker count nor the sampling period ever changes
	// simulation results (the parallel tick phase is bit-identical to
	// sequential, and the sampler only reads), so both are excluded
	// from the config fingerprint (see FingerprintConfig): a checkpoint
	// taken at one worker count or sampling period restores under any
	// other.
	s.cfgFP = FingerprintConfig(cfg)
	return s, nil
}

// registerMetrics builds the metrics registry over the wired system:
// component counters as gauges, the fault-service-latency histogram on
// the fault unit, the shared replay-queue / operand-log occupancy
// histograms across SMs, and the per-reason stall breakdown.
func (s *Simulator) registerMetrics() {
	s.reg = obs.NewRegistry()
	s.l2.RegisterMetrics(s.reg, "l2")
	s.l2tlb.RegisterMetrics(s.reg, "l2tlb")
	s.fu.RegisterMetrics(s.reg, "fillunit")
	s.mem.RegisterMetrics(s.reg, "dram")
	s.link.RegisterMetrics(s.reg, "link")
	s.cpu.RegisterMetrics(s.reg, "cpu.fault")
	s.funit.RegisterMetrics(s.reg, "faultunit")
	if s.local != nil {
		s.local.RegisterMetrics(s.reg, "local")
	}
	s.funit.SetLatency(s.reg.Histogram("fault.latency_cycles"))
	met := sm.Metrics{
		ReplayOcc: s.reg.Histogram("sm.replay_occupancy"),
		LogOcc:    s.reg.Histogram("sm.operand_log_occupancy"),
	}
	for _, m := range s.sms {
		m.SetMetrics(met)
	}
	smSum := func(pick func(sm.Stats) int64) func() int64 {
		return func() int64 {
			var t int64
			for _, m := range s.sms {
				t += pick(m.Stats())
			}
			return t
		}
	}
	s.reg.Gauge("excep.pending", func() int64 { return int64(s.board.Pending()) })
	s.reg.Gauge("sm.occupancy_blocks", func() int64 {
		var t int64
		for _, m := range s.sms {
			t += int64(m.Occupancy())
		}
		return t
	})
	s.reg.Gauge("emu.flips", s.flips)
	s.reg.Gauge("sm.committed", smSum(func(st sm.Stats) int64 { return st.Committed }))
	s.reg.Gauge("sm.exceptions", smSum(func(st sm.Stats) int64 { return st.Exceptions }))
	s.reg.Gauge("sm.faults", smSum(func(st sm.Stats) int64 { return st.Faults }))
	s.reg.Gauge("sm.squashed", smSum(func(st sm.Stats) int64 { return st.Squashed }))
	s.reg.Gauge("sm.replays", smSum(func(st sm.Stats) int64 { return st.Replays }))
	s.reg.Gauge("sm.switches_out", smSum(func(st sm.Stats) int64 { return st.SwitchesOut }))
	s.reg.Gauge("sm.context_bytes", smSum(func(st sm.Stats) int64 { return st.ContextBytes }))
	for r := obs.StallReason(0); r < obs.NumStallReasons; r++ {
		r := r
		s.reg.Gauge("sm.stall."+r.String(),
			smSum(func(st sm.Stats) int64 { return st.Stalls[r] }))
	}
}

// AttachTracer binds tr to the simulator's clock and threads it through
// every traced component: the SMs, the fault unit, the fill unit, the
// CPU fault service and the GPU-local handler. A nil tracer is a no-op.
// Call before Run; the tracer never schedules events, so an attached
// tracer cannot change simulated cycle counts.
func (s *Simulator) AttachTracer(tr *obs.Tracer) {
	if tr == nil {
		return
	}
	s.tracer = tr
	tr.Bind(len(s.sms), s.q.Now)
	for _, m := range s.sms {
		m.SetTracer(tr)
	}
	s.funit.SetTracer(tr)
	s.fu.SetTracer(tr)
	s.cpu.SetTracer(tr)
	if s.local != nil {
		s.local.SetTracer(tr)
	}
}

// Tracer returns the attached tracer (nil when tracing is off).
func (s *Simulator) Tracer() *obs.Tracer { return s.tracer }

// contextMover adapts the DRAM model to sm.ContextMover.
type contextMover struct{ d *dram.DRAM }

func (m contextMover) Move(bytes int, done func()) { m.d.Transfer(bytes, done) }

// AddressSpace exposes the simulator's VM state (for tests and tools).
func (s *Simulator) AddressSpace() *vm.AddressSpace { return s.as }

// Start seeds the launch: blocks are filled onto the SMs and the
// active set and progress tracking are initialized. Idempotent; Run
// calls it automatically, RestoreFrom calls it before replaying.
func (s *Simulator) Start() error {
	if s.started {
		return nil
	}
	for _, m := range s.sms {
		m.PrepareLaunch(s.spec.Launch)
	}
	for _, m := range s.sms {
		m.FillBlocks()
	}
	if err := s.disp.Err(); err != nil {
		return err
	}
	// Seed the active set: wake hooks only fire on the idle→awake
	// transition, which the initial block fill never takes.
	for i := range s.active {
		s.active[i] = 0
	}
	for i, m := range s.sms {
		if !m.Done() && !m.Idle() {
			s.active[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	if s.progressWindow > 0 {
		s.wd = &watchdog{window: s.progressWindow, lastSig: -1}
	}
	s.lastNow = -1
	if s.CheckpointEvery > 0 {
		s.nextCkpt = s.CheckpointEvery
	}
	s.started = true
	return nil
}

// StepTo advances the simulation until the clock reaches cycle stop or
// the launch finishes, whichever comes first (stop < 0 means run to
// completion). It returns true when it stopped at a cycle boundary
// with now >= stop while work remains. The stop check sits at the top
// of the loop, before any per-cycle bookkeeping mutates state: a
// checkpoint written at cycle C captures exactly the state a fresh
// simulator reaches via StepTo(C) — the foundation of restore
// verification and divergence bisection.
func (s *Simulator) StepTo(stop int64) (bool, error) {
	// With Workers >= 2 and an isolated tick path, shard the tick sweep
	// across worker goroutines for this call (parallel.go); the workers
	// are parked at a barrier except during the tick phase and stopped
	// before return. A nil pool means the sequential sweep below — the
	// two produce bit-identical state.
	pool := s.newShardPool()
	if pool != nil {
		pool.launch()
		defer pool.stop()
	}
	for !s.finished() {
		now := s.q.Now()
		s.applyPerturbs(now)
		if stop >= 0 && now >= stop {
			return true, nil
		}
		if err := s.maybeWriteCheckpoint(now); err != nil {
			return false, err
		}
		if err := s.firstError(); err != nil {
			return false, err
		}
		if now < s.lastNow {
			return false, s.stallError("invariant",
				[]string{fmt.Sprintf("clock moved backwards: %d after %d", now, s.lastNow)})
		}
		s.lastNow = now
		if now > s.MaxCycles {
			return false, s.stallError("max-cycles", nil)
		}
		if s.wd != nil && s.wd.observe(now, s.progressSignature()) {
			return false, s.stallError("watchdog", nil)
		}
		if s.sweepEvery > 0 && now >= s.nextSweep {
			s.nextSweep = now + s.sweepEvery
			if v := s.CheckInvariants(); len(v) > 0 {
				return false, s.stallError("invariant", v)
			}
		}
		// Tick the active set in SM index order. The bitset may
		// over-approximate (a woken SM can be done), so each set bit
		// re-checks the old scan's !Done && !Idle condition; SMs that
		// fail it drop out of the set until their next wake.
		var anyActive bool
		if pool != nil {
			anyActive = pool.tick()
		} else {
			anyActive = s.tickSequential()
		}
		if err := s.firstError(); err != nil {
			return false, err
		}
		// Telemetry fires here — after the tick phase and, for parallel
		// runs, after the ordered ledger flush — so samples observe
		// exactly the sequential sweep's state at this cycle.
		s.maybeTelemetry(now)
		if s.finished() {
			break
		}
		if anyActive {
			s.q.Step()
		} else {
			next, ok := s.q.NextEvent()
			if !ok {
				return false, s.stallError("deadlock", nil)
			}
			s.q.SkipTo(next)
		}
	}
	return false, nil
}

// flips returns the bit flips injected into the blocks dispatched so
// far, counting a block whose emulation failed.
func (s *Simulator) flips() int64 {
	n := s.disp.Issued()
	if s.disp.Err() != nil {
		n++
	}
	return s.stream.flipsAt(n)
}

// Run simulates the launch to completion and returns the result. On
// return spec.Memory holds the image at the dispatch cursor: the final
// image when the run completed.
func (s *Simulator) Run() (*Result, error) {
	r, err := s.run()
	if serr := s.syncMemory(); err == nil && serr != nil {
		return nil, serr
	}
	return r, err
}

func (s *Simulator) run() (*Result, error) {
	if err := s.Start(); err != nil {
		return nil, err
	}
	if _, err := s.StepTo(-1); err != nil {
		return nil, err
	}
	if err := s.firstError(); err != nil {
		return nil, err
	}
	// Launch completion is an API-call boundary: any exception posted
	// after the last in-loop poll is observed now, so a precise-mode
	// exception surfaces even when the rest of the grid finished first.
	if e := s.board.Drain(s.q.Now()); e != nil {
		return nil, e
	}
	if s.chaos != nil {
		// End-of-run sweep: a run that completes while violating a
		// structural invariant has silently corrupted its statistics.
		if v := s.CheckInvariants(); len(v) > 0 {
			return nil, s.stallError("invariant", v)
		}
	}
	s.closeTelemetry()
	return s.collect(), nil
}

// Cycle returns the current simulated cycle.
func (s *Simulator) Cycle() int64 { return s.q.Now() }

// Finished reports whether the launch has run to completion.
func (s *Simulator) Finished() bool { return s.finished() }

// Collect builds the result summary for the current state. Run calls
// it on completion; bisection probes call it after a partial StepTo.
func (s *Simulator) Collect() *Result { return s.collect() }

func (s *Simulator) finished() bool {
	if !s.disp.AllDone() {
		return false
	}
	for _, m := range s.sms {
		if !m.Done() {
			return false
		}
	}
	return true
}

func (s *Simulator) firstError() error {
	if err := s.disp.Err(); err != nil {
		return err
	}
	if e := s.board.Poll(s.q.Now()); e != nil {
		return e
	}
	if err := s.funit.Err(); err != nil {
		return err
	}
	if err := s.cpu.Err(); err != nil {
		return err
	}
	if s.local != nil {
		if err := s.local.Err(); err != nil {
			return err
		}
	}
	return nil
}

func (s *Simulator) collect() *Result {
	r := &Result{
		Cycles:         s.q.Now(),
		L2:             s.l2.Stats(),
		L2TLB:          s.l2tlb.Stats(),
		DRAM:           s.mem.Stats(),
		Link:           s.link.Stats(),
		LinkUtil:       s.link.Utilization(),
		CPUFaults:      s.cpu.Stats(),
		FaultUnit:      s.funit.Stats(),
		Walks:          s.fu.Walks,
		WalkFaults:     s.fu.FaultsDetected,
		InjectedFaults: s.fu.FaultsInjected,
		Blocks:         s.disp.Completed(),
	}
	if s.local != nil {
		r.Local = s.local.Stats()
	}
	for _, m := range s.sms {
		st := m.Stats()
		r.SMs = append(r.SMs, st)
		r.Committed += st.Committed
		r.Exceptions += st.Exceptions
		r.Stalls.Add(st.Stalls)
	}
	r.Flips = s.flips()
	r.Metrics = s.reg.Snapshot()
	r.Series = s.sampler.View()
	if len(s.sms) > 0 {
		sum := 0
		r.OccupancyMin = s.sms[0].Occupancy()
		for _, m := range s.sms {
			occ := m.Occupancy()
			sum += occ
			if occ > r.Occupancy {
				r.Occupancy = occ
			}
			if occ < r.OccupancyMin {
				r.OccupancyMin = occ
			}
		}
		r.OccupancyMean = float64(sum) / float64(len(s.sms))
	}
	return r
}

// RunSpec is a convenience: build a simulator for cfg/spec and run it.
func RunSpec(cfg config.Config, spec LaunchSpec) (*Result, error) {
	s, err := New(cfg, spec)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
