// Package ckpt implements the versioned, deterministic whole-simulator
// checkpoint format. A checkpoint records the state of every registered
// component at one cycle boundary as one named 64-bit digest; the file
// carries a format version, fingerprints of the configuration and
// launch spec it belongs to, and a trailing whole-file digest so a
// checkpoint truncated by a crash (kill -9 mid-write) is detected
// rather than restored.
//
// Components implement Saver: SaveState feeds the component's state to
// a Writer as a flat sequence of typed fields, and the Writer folds
// them into an FNV-1a digest as they arrive; no state bytes are ever
// buffered. Nothing needs them: restore replays a fresh simulator to
// the checkpoint cycle and compares its component digests against the
// checkpoint's. Serialization must be deterministic — in particular,
// map-keyed state must be written in sorted key order (the simlint
// determinism analyzer covers this package). The same digests are the
// per-component state fingerprints that cmd/simbisect compares when
// binary-searching for the first cycle two runs diverge.
//
// See docs/checkpointing.md for the format layout, the determinism
// contract and the restore (replay-and-verify) model.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gpues/internal/atomicio"
)

// Magic identifies a checkpoint file. The layout that follows it is
// selected by the version field, which sits at a fixed offset in every
// generation.
const Magic = "GPUCKPT1"

// Version is the current checkpoint format version. Bump it whenever
// the envelope or any component's SaveState field sequence changes:
// restore refuses checkpoints written by a different version instead of
// reporting a spurious divergence.
const Version uint32 = 2

// fnv64a is the FNV-1a digest used for section, file and streaming
// state digests. It is not cryptographic; it only needs to make state
// divergence and file truncation visible.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// Digest returns the FNV-1a hash of b.
func Digest(b []byte) uint64 {
	w := NewWriter()
	w.Raw(b)
	return w.Sum()
}

// Saver is the common interface every stateful simulator component
// implements to participate in checkpointing. SaveState feeds the
// component's state to w. Restore never decodes it: the replayed
// simulator's own digest is compared against the checkpoint's, so the
// fields only have to cover every piece of state.
//
// State that cannot be serialized (scheduled event closures, pooled
// objects in flight) is represented structurally — counts and sorted
// summaries — and rebuilt by deterministic replay on restore; see
// docs/checkpointing.md.
type Saver interface {
	SaveState(w *Writer)
}

// Writer is a streaming FNV-1a digest of typed fields. Each method
// folds in exactly the little-endian bytes the field would occupy in a
// flat serialization, so Sum equals Digest of that serialization.
type Writer struct{ h uint64 }

// NewWriter returns a writer at the FNV-1a offset basis.
func NewWriter() *Writer { return &Writer{h: fnvOffset} }

// NewHasher is NewWriter, under the name the fingerprinting helpers
// (page tables, functional memory, stream keys, benchmark cells) use.
func NewHasher() *Writer { return NewWriter() }

// Sum returns the digest of everything written so far.
func (w *Writer) Sum() uint64 { return w.h }

// le folds in the n low-order bytes of v, least significant first.
func (w *Writer) le(v uint64, n int) {
	h := w.h
	for i := 0; i < n; i++ {
		h = (h ^ (v>>(8*i))&0xff) * fnvPrime
	}
	w.h = h
}

// U64 folds in v.
func (w *Writer) U64(v uint64) { w.le(v, 8) }

// I64 folds in v.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// U32 folds in v.
func (w *Writer) U32(v uint32) { w.le(uint64(v), 4) }

// Int folds in v as an int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool folds in b as one byte.
func (w *Writer) Bool(b bool) {
	var v uint64
	if b {
		v = 1
	}
	w.le(v, 1)
}

// F64 folds in the IEEE-754 bits of f.
func (w *Writer) F64(f float64) { w.U64(math.Float64bits(f)) }

// Bytes folds in b length-prefixed.
func (w *Writer) Bytes(b []byte) {
	w.U64(uint64(len(b)))
	w.Raw(b)
}

// String folds in s length-prefixed.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	h := w.h
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	w.h = h
}

// Raw folds in b with no length prefix. The functional memory digest
// and the spec fingerprint fold chunks and names this way; switching
// them to Bytes would change every stored fingerprint.
func (w *Writer) Raw(b []byte) {
	h := w.h
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	w.h = h
}

// reader consumes the checkpoint envelope Encode writes. Errors are
// sticky: after the first short read every accessor returns the zero
// value and err holds the failure, so Decode can read unconditionally
// and check once.
type reader struct {
	buf []byte
	off int
	err error
}

func newReader(b []byte) *reader { return &reader{buf: b} }

func (r *reader) remaining() int { return len(r.buf) - r.off }

func (r *reader) fail(n int) {
	if r.err == nil {
		r.err = fmt.Errorf("ckpt: truncated checkpoint: need %d bytes at offset %d of %d", n, r.off, len(r.buf))
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf)-r.off < n {
		r.fail(n)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// bytes reads one length-prefixed byte slice (a view into the buffer).
func (r *reader) bytes() []byte {
	n := r.u64()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.remaining()) {
		r.fail(int(n))
		return nil
	}
	return r.take(int(n))
}

// SectionDigest is one component's state digest within a checkpoint;
// simbisect compares slices of these across two runs.
type SectionDigest struct {
	Name   string
	Digest uint64
}

// Checkpoint is one decoded (or to-be-encoded) checkpoint: the cycle it
// was taken at, the fingerprints of the configuration and launch spec
// that produced it, and one digest per registered component.
type Checkpoint struct {
	Version  uint32
	Cycle    int64
	ConfigFP uint64
	SpecFP   uint64
	Sections []SectionDigest
}

// Encode serializes the checkpoint:
//
//	magic[8] version:u32 cycle:i64 configFP:u64 specFP:u64 nSections:u32
//	( name:str digest:u64 )*
//	fileDigest:u64   — FNV-1a over every preceding byte
func (c *Checkpoint) Encode() []byte {
	le := binary.LittleEndian
	b := append([]byte(nil), Magic...)
	b = le.AppendUint32(b, c.Version)
	b = le.AppendUint64(b, uint64(c.Cycle))
	b = le.AppendUint64(b, c.ConfigFP)
	b = le.AppendUint64(b, c.SpecFP)
	b = le.AppendUint32(b, uint32(len(c.Sections)))
	for _, s := range c.Sections {
		b = le.AppendUint64(b, uint64(len(s.Name)))
		b = append(b, s.Name...)
		b = le.AppendUint64(b, s.Digest)
	}
	return le.AppendUint64(b, Digest(b))
}

// Decode parses and fully validates an encoded checkpoint: magic,
// trailing file digest, version and section list. A file cut short by
// a crash fails here instead of restoring garbage.
func Decode(b []byte) (*Checkpoint, error) {
	if len(b) < len(Magic)+8 || string(b[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("ckpt: not a checkpoint file (bad magic)")
	}
	body, tail := b[:len(b)-8], b[len(b)-8:]
	if got, want := binary.LittleEndian.Uint64(tail), Digest(body); got != want {
		return nil, fmt.Errorf("ckpt: file digest mismatch (%#016x != %#016x): truncated or corrupt", got, want)
	}
	r := newReader(body[len(Magic):])
	c := &Checkpoint{Version: r.u32()}
	if c.Version != Version {
		return nil, fmt.Errorf("ckpt: format version %d, this binary reads version %d", c.Version, Version)
	}
	c.Cycle = int64(r.u64())
	c.ConfigFP = r.u64()
	c.SpecFP = r.u64()
	n := int(r.u32())
	for i := 0; i < n && r.err == nil; i++ {
		name := string(r.bytes())
		c.Sections = append(c.Sections, SectionDigest{Name: name, Digest: r.u64()})
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("ckpt: %d trailing bytes after %d sections", r.remaining(), n)
	}
	return c, nil
}

// WriteFile atomically writes the checkpoint to path (tmp+rename via
// atomicio), so a reader (or a resume after kill -9) only ever sees
// complete files.
func (c *Checkpoint) WriteFile(path string) error {
	return atomicio.WriteFile(path, c.Encode())
}

// ReadFile reads and validates the checkpoint at path.
func ReadFile(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := Decode(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// FileName returns the canonical checkpoint file name for a cycle;
// zero-padding keeps lexical and numeric order identical.
func FileName(cycle int64) string { return fmt.Sprintf("ckpt-%012d.ckpt", cycle) }

// Latest returns the path of the newest (highest-cycle) valid
// checkpoint in dir, skipping files that fail validation (e.g. a write
// interrupted before the atomic rename never produces one, but a copy
// truncated in transit would). It returns os.ErrNotExist when the
// directory holds no valid checkpoint.
func Latest(dir string) (string, *Checkpoint, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".ckpt") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var (
		bestPath string
		best     *Checkpoint
		firstErr error
	)
	for _, name := range names {
		path := filepath.Join(dir, name)
		c, err := ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if best == nil || c.Cycle > best.Cycle {
			bestPath, best = path, c
		}
	}
	if best != nil {
		return bestPath, best, nil
	}
	if firstErr != nil {
		return "", nil, fmt.Errorf("ckpt: no valid checkpoint in %s: %w", dir, firstErr)
	}
	return "", nil, fmt.Errorf("ckpt: no checkpoint in %s: %w", dir, os.ErrNotExist)
}
