package sim

import (
	"fmt"

	"gpues/internal/chaos"
	"gpues/internal/config"
	"gpues/internal/emu"
	"gpues/internal/kernel"
	"gpues/internal/obs"
)

// DefaultInvariantInterval is the cycle period of the structural
// invariant sweep during chaos runs when the plan does not choose one.
const DefaultInvariantInterval = 100_000

// AttachChaos wires a chaos plan through every injection hook of the
// system — fill-unit walker, CPU fault service, interconnect, SMs —
// binds it to the simulation clock, applies plan-level resource
// exhaustion, and enables the periodic invariant sweep. A nil plan is a
// no-op. Call before Run.
func (s *Simulator) AttachChaos(p *chaos.Plan) {
	if p == nil {
		return
	}
	s.chaos = p
	p.Bind(s.q.Now)
	s.fu.SetInjector(p)
	s.cpu.SetDelayer(p)
	s.link.SetJitter(p)
	for _, m := range s.sms {
		m.SetChaos(p)
	}
	cfg := p.Config()
	if cfg.ExhaustGPUMemory {
		s.as.GPUPhys.Exhaust(cfg.LeaveGPUFrames)
	}
	interval := cfg.InvariantInterval
	switch {
	case interval == 0:
		interval = DefaultInvariantInterval
	case interval < 0:
		interval = 0 // periodic sweep disabled; end-of-run sweep remains
	}
	s.sweepEvery = interval
	s.nextSweep = interval
}

// ChaosResult is the outcome of a chaos run: the timing result plus the
// injected-event log and the verdict of the restartability oracle.
type ChaosResult struct {
	*Result

	// Events is the injected-fault log; Fingerprint hashes it, so equal
	// seeds must yield equal fingerprints (bit-reproducibility).
	Events      []chaos.Event
	Fingerprint uint64
	// Summary is the one-line per-kind injection count.
	Summary string

	// Mismatches holds up to maxOracleMismatches bytes on which the
	// final memory disagrees with the functional oracle. Injected faults
	// must never change architectural results, so any entry here is a
	// restartability violation.
	Mismatches []emu.Mismatch
}

const maxOracleMismatches = 16

// OracleOK reports whether the final memory matched the oracle.
func (r *ChaosResult) OracleOK() bool { return len(r.Mismatches) == 0 }

// oracleMemory re-executes the whole grid functionally on mem (the
// cloned initial memory) and returns it: the architectural reference
// any timing run — however perturbed — must reproduce.
func oracleMemory(l *kernel.Launch, mem *emu.Memory, lineSize int) (*emu.Memory, error) {
	em, err := emu.New(l, mem, lineSize)
	if err != nil {
		return nil, err
	}
	for b := 0; b < l.Blocks(); b++ {
		if _, err := em.EmulateBlock(b); err != nil {
			return nil, err
		}
	}
	return mem, nil
}

// RunChaos builds a simulator for cfg/spec, attaches the plan, runs the
// launch, and checks the restartability property: the final functional
// memory must be byte-identical to a pure functional re-execution of
// the grid from the initial memory. A nil plan runs clean. The returned
// ChaosResult carries the event log and fingerprint even when the run
// itself fails (its Result is nil in that case).
func RunChaos(cfg config.Config, spec LaunchSpec, plan *chaos.Plan) (*ChaosResult, error) {
	return RunChaosOpts(cfg, spec, plan, ChaosRunOptions{})
}

// chaosRingSize bounds the default chaos flight recorder: enough for
// the recent fault-lifecycle history without retaining a full run.
const chaosRingSize = 4096

// chaosTraceFilter is the default chaos flight-recorder filter: the
// fault lifecycle plus context switching and both handler paths.
const chaosTraceFilter = "fault,switch,migrate,local"

// ChaosRunOptions carries the optional knobs of a chaos run.
type ChaosRunOptions struct {
	// Tracer to attach. When nil, a small flight-recorder tracer (fault,
	// switch, migrate and local events) is attached anyway, so a failing
	// run's StallReport carries the recent fault-lifecycle history; pass
	// a tracer built from obs.Options to keep it for export.
	Tracer *obs.Tracer
	// CheckpointEvery/CheckpointDir enable periodic checkpoints.
	CheckpointEvery int64
	CheckpointDir   string
	// Resume is a checkpoint file (or a directory, whose latest valid
	// checkpoint is used) to restore before running. The plan must be
	// built from the same config and seed as the checkpointing run.
	Resume string
	// Telemetry, when non-nil, receives telemetry snapshots every
	// TelemetryEvery cycles (<= 0 selects the simulator default).
	Telemetry      TelemetrySink
	TelemetryEvery int64
}

// RunChaosOpts is RunChaos with the optional knobs of ChaosRunOptions.
func RunChaosOpts(cfg config.Config, spec LaunchSpec, plan *chaos.Plan, opt ChaosRunOptions) (*ChaosResult, error) {
	initial := spec.Memory
	if initial == nil {
		return nil, fmt.Errorf("sim: launch spec needs memory")
	}
	snapshot := initial.Clone()

	s, err := New(cfg, spec)
	if err != nil {
		return nil, err
	}
	s.AttachChaos(plan)
	tr := opt.Tracer
	if tr == nil {
		mask, ferr := obs.ParseFilter(chaosTraceFilter)
		if ferr != nil {
			return nil, ferr
		}
		tr = obs.New(obs.Options{Filter: mask, RingSize: chaosRingSize})
	}
	s.AttachTracer(tr)
	s.CheckpointEvery = opt.CheckpointEvery
	s.CheckpointDir = opt.CheckpointDir
	if opt.Telemetry != nil {
		s.SetTelemetrySink(opt.Telemetry, opt.TelemetryEvery)
	}
	if opt.Resume != "" {
		path, rerr := ResolveCheckpoint(opt.Resume)
		if rerr != nil {
			return nil, rerr
		}
		if rerr := s.RestoreFile(path); rerr != nil {
			return nil, rerr
		}
	}
	r, err := s.Run()
	cr := &ChaosResult{
		Result:      r,
		Events:      plan.Events(),
		Fingerprint: plan.Fingerprint(),
		Summary:     plan.Summary(),
	}
	if err != nil {
		return cr, err
	}
	oracle, err := oracleMemory(spec.Launch, snapshot, cfg.SM.L1LineB)
	if err != nil {
		return cr, fmt.Errorf("sim: functional oracle failed: %w", err)
	}
	cr.Mismatches = spec.Memory.Diff(oracle, maxOracleMismatches)
	return cr, nil
}
