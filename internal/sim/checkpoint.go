// Checkpoint/restore for the full simulator. The clock queue stores
// scheduled closures, which cannot be serialized; a checkpoint instead
// captures the cycle plus every component's architectural state (and a
// structural summary of its closure-bound state), and restore replays
// a fresh simulator to the checkpoint cycle — deterministic execution
// makes the replay bit-identical — then verifies each component's
// re-serialized state byte-for-byte against the checkpoint before
// installing the installable parts. Every restore therefore doubles as
// a determinism audit: any nondeterminism between the writing run and
// the replay surfaces as a DivergenceError naming the component.
package sim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"gpues/internal/ckpt"
	"gpues/internal/config"
)

// namedSaver pairs a checkpoint section name with its component.
type namedSaver struct {
	name  string
	saver ckpt.Saver
}

// saverList enumerates every stateful component in a fixed order. The
// names are the checkpoint section names; they are stable across runs
// of the same configuration, so two runs' checkpoints can be compared
// section by section.
func (s *Simulator) saverList() []namedSaver {
	list := []namedSaver{
		{"clock", s.q},
		{"host.dispatcher", s.disp},
		{"host.faultservice", s.cpu},
		{"host.excep", s.board},
		{"core.faultunit", s.funit},
		{"vm", s.as},
		{"emu.memory", s.spec.Memory},
		{"dram", s.mem},
		{"link", s.link},
		{"cache.l2", s.l2},
		{"tlb.l2", s.l2tlb},
		{"tlb.fillunit", s.fu},
		{"obs.metrics", s.reg},
	}
	if s.local != nil {
		list = append(list, namedSaver{"core.localhandler", s.local})
	}
	if s.chaos != nil {
		list = append(list, namedSaver{"chaos", s.chaos})
	}
	for i, m := range s.sms {
		list = append(list, namedSaver{fmt.Sprintf("sm.%d", i), m})
		list = append(list, namedSaver{fmt.Sprintf("cache.l1.%d", i), s.l1s[i]})
		list = append(list, namedSaver{fmt.Sprintf("tlb.l1.%d", i), s.l1tlbs[i]})
	}
	list = append(list, namedSaver{"sim.core", (*simCore)(s)})
	return list
}

// simCore is the simulator's own loop state as a checkpoint component:
// the runnable-SM bitset. The remaining loop fields (watchdog, sweep
// schedule, checkpoint schedule) intentionally stay out — they mutate
// after the loop-top point a checkpoint captures, and they influence
// only abort conditions, never simulated state.
type simCore Simulator

// SaveState serializes the active-SM bitset.
func (c *simCore) SaveState(w *ckpt.Writer) {
	w.Int(len(c.active))
	for _, word := range c.active {
		w.U64(word)
	}
}

// RestoreState reads the SaveState stream back and installs it.
func (c *simCore) RestoreState(r *ckpt.Reader) error {
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(c.active) {
		return fmt.Errorf("sim: %d active-set words, checkpoint has %d", len(c.active), n)
	}
	for i := range c.active {
		c.active[i] = r.U64()
	}
	return r.Err()
}

// FingerprintConfig returns the checkpoint config fingerprint of cfg —
// the value stamped into every checkpoint and used as half of the
// result-cache key. The worker count and sampling period are excluded:
// neither ever changes simulation results, so runs differing only in
// those fields are interchangeable.
func FingerprintConfig(cfg config.Config) uint64 {
	cfg.Workers = 0
	cfg.SampleEvery = 0
	return ckpt.Digest([]byte(fmt.Sprintf("%#v", cfg)))
}

// FingerprintSpec hashes a launch spec: the kernel (name, code,
// register and shared-memory footprint, parameters), the grid and block
// shapes, the device heap, the registered regions, and the current
// functional memory image. New calls it before any simulation runs, so
// the memory digest covers the initial image; callers fingerprinting
// for the result cache must do the same (runs mutate the functional
// memory). The value keys checkpoints, the simulation service's result
// cache and trace streams, so two specs share it only when every
// input of emulation and timing agrees.
func FingerprintSpec(spec LaunchSpec) uint64 {
	h := ckpt.NewHasher()
	l, k := spec.Launch, spec.Launch.Kernel
	h.Bytes([]byte(k.Name))
	h.U64(uint64(len(k.Code)))
	for i := range k.Code {
		in := &k.Code[i]
		h.U64(uint64(in.Op))
		h.U64(uint64(in.Dst))
		h.U64(uint64(in.SrcA))
		h.U64(uint64(in.SrcB))
		h.U64(uint64(in.SrcC))
		h.U64(uint64(in.Imm))
		h.U64(uint64(in.Pred))
		h.U64(boolBit(in.PredNeg))
		h.U64(uint64(in.Cmp))
		h.U64(uint64(in.Atom))
		h.U64(uint64(in.Size))
		h.U64(uint64(in.Target))
		h.U64(uint64(in.Reconv))
	}
	h.U64(uint64(k.RegsPerThread))
	h.U64(uint64(k.SharedMemBytes))
	h.U64(uint64(len(k.Params)))
	for _, p := range k.Params {
		h.U64(p)
	}
	for _, d := range []int{l.Grid.X, l.Grid.Y, l.Block.X, l.Block.Y} {
		h.U64(uint64(d))
	}
	h.U64(l.HeapBase)
	h.U64(l.HeapBytes)
	for _, r := range spec.Regions {
		h.Bytes([]byte(r.Name))
		h.U64(r.Base)
		h.U64(r.Size)
		h.U64(uint64(r.Kind))
	}
	w := ckpt.NewWriter()
	spec.Memory.SaveState(w)
	h.Bytes(w.Data())
	return h.Sum()
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Fingerprints returns the simulator's config and spec fingerprints —
// the pair a checkpoint must match to restore here, and the key the
// simulation service's result cache is built on.
func (s *Simulator) Fingerprints() (cfgFP, specFP uint64) { return s.cfgFP, s.specFP }

// Capture serializes the complete current state into a checkpoint.
// Valid only at a cycle boundary (the main loop's top); callers inside
// the loop are maybeWriteCheckpoint and stallError, callers outside
// must go through StepTo.
//
// The emu.memory section is the functional memory at the dispatch
// cursor. A run fed by a shared stream materializes it here, bringing
// spec.Memory up to the cursor first (see syncMemory).
func (s *Simulator) Capture() *ckpt.Checkpoint {
	if err := s.syncMemory(); err != nil {
		// Catch-up emulation replays blocks the stream already
		// emulated deterministically; failing is a determinism bug.
		panic(err)
	}
	ck := &ckpt.Checkpoint{
		Version:  ckpt.Version,
		Cycle:    s.q.Now(),
		ConfigFP: s.cfgFP,
		SpecFP:   s.specFP,
	}
	w := ckpt.NewWriter()
	for _, ns := range s.saverList() {
		w.Reset()
		ns.saver.SaveState(w)
		w.U64(s.nonces[ns.name])
		data := make([]byte, len(w.Data()))
		copy(data, w.Data())
		ck.Sections = append(ck.Sections, ckpt.Section{Name: ns.name, Data: data})
	}
	return ck
}

// ComponentDigests returns the per-component state digests at the
// current cycle boundary — the bisection probe primitive.
func (s *Simulator) ComponentDigests() []ckpt.SectionDigest {
	return s.Capture().Digests()
}

// WriteCheckpoint captures the current state and writes it into dir
// (created if missing) under the canonical cycle-stamped name. The
// write is atomic, so a kill mid-write never leaves a partial file.
func (s *Simulator) WriteCheckpoint(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	ck := s.Capture()
	path := filepath.Join(dir, ckpt.FileName(ck.Cycle))
	if err := ck.WriteFile(path); err != nil {
		return "", err
	}
	return path, nil
}

// maybeWriteCheckpoint writes the periodic checkpoint when one is due.
// Disabled while replaying: the replay must not overwrite the files it
// is restoring from.
func (s *Simulator) maybeWriteCheckpoint(now int64) error {
	if s.replaying || s.CheckpointEvery <= 0 || s.CheckpointDir == "" || now < s.nextCkpt {
		return nil
	}
	for s.nextCkpt <= now {
		s.nextCkpt += s.CheckpointEvery
	}
	_, err := s.WriteCheckpoint(s.CheckpointDir)
	return err
}

// ResolveCheckpoint turns a user-supplied resume argument into a
// checkpoint file path: a directory resolves to its latest valid
// checkpoint, anything else is taken as the file itself.
func ResolveCheckpoint(pathOrDir string) (string, error) {
	info, err := os.Stat(pathOrDir)
	if err != nil {
		return "", err
	}
	if !info.IsDir() {
		return pathOrDir, nil
	}
	path, _, err := ckpt.Latest(pathOrDir)
	if err != nil {
		return "", fmt.Errorf("sim: no usable checkpoint in %s: %w", pathOrDir, err)
	}
	return path, nil
}

// DivergenceError reports that a component's replayed state does not
// match its checkpoint section — either real nondeterminism between
// the checkpointing run and the restoring one, or a configuration
// drift the fingerprints could not catch.
type DivergenceError struct {
	Component string
	Cycle     int64
}

// Error renders the divergence.
func (e *DivergenceError) Error() string {
	return fmt.Sprintf("sim: state of %q diverged from checkpoint at cycle %d", e.Component, e.Cycle)
}

// RestoreFile loads the checkpoint at path and restores it; see
// Restore.
func (s *Simulator) RestoreFile(path string) error {
	ck, err := ckpt.ReadFile(path)
	if err != nil {
		return err
	}
	return s.Restore(ck)
}

// Restore brings a freshly built simulator to the checkpoint's state:
// replay to the checkpoint cycle, verify every component's
// re-serialized state byte-for-byte against its section, then install
// the installable state. The simulator must be configured exactly as
// the checkpointing run was (same config, spec, chaos plan, tracer)
// and must not have run yet; call Run afterwards to continue to
// completion.
func (s *Simulator) Restore(ck *ckpt.Checkpoint) error {
	if s.started {
		return fmt.Errorf("sim: restore must precede Run")
	}
	if ck.ConfigFP != s.cfgFP {
		return fmt.Errorf("sim: checkpoint config fingerprint %#016x does not match simulator %#016x",
			ck.ConfigFP, s.cfgFP)
	}
	if ck.SpecFP != s.specFP {
		return fmt.Errorf("sim: checkpoint spec fingerprint %#016x does not match simulator %#016x",
			ck.SpecFP, s.specFP)
	}
	if err := s.Start(); err != nil {
		return err
	}
	s.replaying = true
	reached, err := s.StepTo(ck.Cycle)
	s.replaying = false
	if err != nil {
		return err
	}
	if !reached {
		return fmt.Errorf("sim: replay finished at cycle %d before reaching checkpoint cycle %d",
			s.q.Now(), ck.Cycle)
	}
	if got := s.q.Now(); got != ck.Cycle {
		return fmt.Errorf("sim: replay stopped at cycle %d, checkpoint is at %d", got, ck.Cycle)
	}

	savers := s.saverList()
	fresh := s.Capture()
	if len(fresh.Sections) != len(ck.Sections) {
		return fmt.Errorf("sim: simulator has %d components, checkpoint has %d (chaos/local wiring must match)",
			len(fresh.Sections), len(ck.Sections))
	}
	for _, sec := range fresh.Sections {
		want := ck.Section(sec.Name)
		if want == nil {
			return fmt.Errorf("sim: checkpoint has no section %q", sec.Name)
		}
		if !bytes.Equal(sec.Data, want.Data) {
			return &DivergenceError{Component: sec.Name, Cycle: ck.Cycle}
		}
	}

	for _, ns := range savers {
		sec := ck.Section(ns.name)
		r := ckpt.NewReader(sec.Data)
		if err := ns.saver.RestoreState(r); err != nil {
			return fmt.Errorf("sim: restore %s: %w", ns.name, err)
		}
		s.nonces[ns.name] = r.U64()
		if err := r.Err(); err != nil {
			return fmt.Errorf("sim: restore %s: %w", ns.name, err)
		}
		if rem := r.Remaining(); rem != 0 {
			return fmt.Errorf("sim: restore %s: %d trailing bytes", ns.name, rem)
		}
	}

	if s.CheckpointEvery > 0 {
		s.nextCkpt = (ck.Cycle/s.CheckpointEvery + 1) * s.CheckpointEvery
	}
	return nil
}

// InjectDivergence registers an artificial single-component state
// perturbation at the given cycle: the component's divergence nonce is
// bumped when the main loop reaches that cycle. The nonce rides in the
// component's checkpoint section, so digests (and bisection) see a
// divergence from exactly that cycle on, while timing and results are
// untouched — the mechanism that lets bisection be tested end to end.
func (s *Simulator) InjectDivergence(cycle int64, component string) error {
	if cycle < 0 {
		return fmt.Errorf("sim: divergence cycle %d out of range", cycle)
	}
	for _, ns := range s.saverList() {
		if ns.name == component {
			if s.perturbs == nil {
				s.perturbs = make(map[int64][]string)
			}
			s.perturbs[cycle] = append(s.perturbs[cycle], component)
			return nil
		}
	}
	return fmt.Errorf("sim: unknown component %q (see docs/checkpointing.md for section names)", component)
}

// applyPerturbs applies (once) every registered divergence at or below
// the current cycle. Applied entries are deleted, so re-entering the
// loop top at the same cycle cannot double-apply.
func (s *Simulator) applyPerturbs(now int64) {
	if len(s.perturbs) == 0 {
		return
	}
	due := make([]int64, 0, len(s.perturbs))
	for c := range s.perturbs {
		if c <= now {
			due = append(due, c)
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	for _, c := range due {
		for _, comp := range s.perturbs[c] {
			s.nonces[comp]++
		}
		delete(s.perturbs, c)
	}
}
