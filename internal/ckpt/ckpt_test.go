package ckpt

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Version:  Version,
		Cycle:    12345,
		ConfigFP: 0xdead,
		SpecFP:   0xbeef,
		Sections: []SectionDigest{
			{Name: "alpha", Digest: 0x0123456789abcdef},
			{Name: "beta", Digest: Digest([]byte("state"))},
			{Name: "", Digest: 0},
		},
	}
}

// TestWriterSumMatchesDigest pins the Writer's streaming digest to the
// flat little-endian serialization each typed method stands for, so a
// checkpoint digest is the digest of well-defined bytes.
func TestWriterSumMatchesDigest(t *testing.T) {
	le := binary.LittleEndian
	cases := []struct {
		name  string
		write func(*Writer)
		flat  []byte
	}{
		{"U64", func(w *Writer) { w.U64(0x0102030405060708) }, le.AppendUint64(nil, 0x0102030405060708)},
		{"I64", func(w *Writer) { w.I64(-7) }, le.AppendUint64(nil, ^uint64(6))},
		{"U32", func(w *Writer) { w.U32(0xa0b0c0d0) }, le.AppendUint32(nil, 0xa0b0c0d0)},
		{"Int", func(w *Writer) { w.Int(-13) }, le.AppendUint64(nil, ^uint64(12))},
		{"Bool true", func(w *Writer) { w.Bool(true) }, []byte{1}},
		{"Bool false", func(w *Writer) { w.Bool(false) }, []byte{0}},
		{"F64", func(w *Writer) { w.F64(3.5) }, le.AppendUint64(nil, math.Float64bits(3.5))},
		{"Bytes", func(w *Writer) { w.Bytes([]byte{1, 2, 3}) }, append(le.AppendUint64(nil, 3), 1, 2, 3)},
		{"String", func(w *Writer) { w.String("hello") }, append(le.AppendUint64(nil, 5), "hello"...)},
		{"Raw", func(w *Writer) { w.Raw([]byte{1, 2, 3}) }, []byte{1, 2, 3}},
		{"empty", func(*Writer) {}, nil},
	}
	var all []byte
	for _, c := range cases {
		w := NewWriter()
		c.write(w)
		if got, want := w.Sum(), Digest(c.flat); got != want {
			t.Errorf("%s: Sum %#016x, Digest of % x is %#016x", c.name, got, c.flat, want)
		}
		all = append(all, c.flat...)
	}
	// Fields fold in sequence: one writer fed every case digests the
	// concatenation.
	w := NewWriter()
	for _, c := range cases {
		c.write(w)
	}
	if got, want := w.Sum(), Digest(all); got != want {
		t.Errorf("sequence: Sum %#016x, Digest %#016x", got, want)
	}
}

func TestReaderStickyError(t *testing.T) {
	r := newReader([]byte{1, 2}) // too short for any field
	if got := r.u64(); got != 0 {
		t.Errorf("u64 on short buffer = %d, want 0", got)
	}
	if r.err == nil {
		t.Fatal("short read must set the error")
	}
	// Every subsequent read stays zero-valued and the error sticks.
	if r.u32() != 0 || r.bytes() != nil {
		t.Error("reads after error must return zero values")
	}
	if r.err == nil {
		t.Error("error must be sticky")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := sampleCheckpoint()
	got, err := Decode(c.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycle != c.Cycle || got.ConfigFP != c.ConfigFP || got.SpecFP != c.SpecFP {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Sections) != len(c.Sections) {
		t.Fatalf("%d sections, want %d", len(got.Sections), len(c.Sections))
	}
	for i := range c.Sections {
		if got.Sections[i] != c.Sections[i] {
			t.Errorf("section %d = %+v, want %+v", i, got.Sections[i], c.Sections[i])
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	b := sampleCheckpoint().Encode()
	// Every proper prefix must be rejected — the crash-mid-write cases.
	for _, cut := range []int{1, 8, len(b) / 2, len(b) - 1} {
		if _, err := Decode(b[:cut]); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	b := sampleCheckpoint().Encode()
	// Flip a byte in the middle (a section entry): the file digest
	// catches it.
	mut := append([]byte(nil), b...)
	mut[len(mut)/2] ^= 0xff
	if _, err := Decode(mut); err == nil {
		t.Error("corrupted payload accepted")
	}
	// Bad magic.
	mut = append([]byte(nil), b...)
	mut[0] = 'X'
	if _, err := Decode(mut); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	c := sampleCheckpoint()
	c.Version = Version + 1
	if _, err := Decode(c.Encode()); err == nil {
		t.Error("future format version accepted")
	}
}

func TestWriteFileAtomicAndReadBack(t *testing.T) {
	dir := t.TempDir()
	c := sampleCheckpoint()
	path := filepath.Join(dir, FileName(c.Cycle))
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Error("temp file left behind")
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycle != c.Cycle {
		t.Errorf("cycle = %d, want %d", got.Cycle, c.Cycle)
	}
}

func TestLatestPicksHighestCycleAndSkipsInvalid(t *testing.T) {
	dir := t.TempDir()
	for _, cycle := range []int64{100, 5000, 900} {
		c := sampleCheckpoint()
		c.Cycle = cycle
		if err := c.WriteFile(filepath.Join(dir, FileName(cycle))); err != nil {
			t.Fatal(err)
		}
	}
	// A stall checkpoint whose name sorts after the periodic ones but
	// whose cycle is lower must not shadow them.
	c := sampleCheckpoint()
	c.Cycle = 200
	if err := c.WriteFile(filepath.Join(dir, "stall-000000000200.ckpt")); err != nil {
		t.Fatal(err)
	}
	// A corrupt file is skipped, not fatal.
	if err := os.WriteFile(filepath.Join(dir, "ckpt-999999999999.ckpt"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	path, best, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if best.Cycle != 5000 {
		t.Errorf("latest cycle = %d, want 5000", best.Cycle)
	}
	if filepath.Base(path) != FileName(5000) {
		t.Errorf("latest path = %s", path)
	}
}

func TestLatestEmptyDir(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := Latest(dir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("empty dir error = %v, want ErrNotExist", err)
	}
}

func TestHasherMatchesDigest(t *testing.T) {
	b := []byte("some state bytes")
	h := NewHasher()
	h.Raw(b)
	if h.Sum() != Digest(b) {
		t.Error("streaming hasher disagrees with one-shot digest")
	}
}
