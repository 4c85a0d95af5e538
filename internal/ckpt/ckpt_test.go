package ckpt

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func sampleCheckpoint() *Checkpoint {
	w := NewWriter()
	w.U64(42)
	w.I64(-7)
	w.Int(13)
	w.Bool(true)
	w.F64(3.5)
	w.Bytes([]byte{1, 2, 3})
	w.String("hello")
	data := append([]byte(nil), w.Data()...)
	return &Checkpoint{
		Version:  Version,
		Cycle:    12345,
		ConfigFP: 0xdead,
		SpecFP:   0xbeef,
		Sections: []Section{
			{Name: "alpha", Data: data},
			{Name: "beta", Data: []byte("state")},
			{Name: "empty", Data: nil},
		},
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	w := NewWriter()
	w.U64(42)
	w.U32(9)
	w.Bytes([]byte{1, 2, 3})
	w.String("hello")

	r := newReader(w.Data())
	if got := r.u64(); got != 42 {
		t.Errorf("u64 = %d", got)
	}
	if got := r.u32(); got != 9 {
		t.Errorf("u32 = %d", got)
	}
	if got := r.bytes(); len(got) != 3 || got[0] != 1 {
		t.Errorf("bytes = %v", got)
	}
	if got := string(r.bytes()); got != "hello" {
		t.Errorf("string = %q", got)
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.remaining() != 0 {
		t.Errorf("%d bytes left over", r.remaining())
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
		if got.Sections[i].Name != c.Sections[i].Name {
			t.Errorf("section %d name %q, want %q", i, got.Sections[i].Name, c.Sections[i].Name)
		}
		if string(got.Sections[i].Data) != string(c.Sections[i].Data) {
			t.Errorf("section %q data mismatch", c.Sections[i].Name)
		}
	}
	if s := got.Section("beta"); s == nil || string(s.Data) != "state" {
		t.Error("Section lookup failed")
	}
	if got.Section("nope") != nil {
		t.Error("unknown section must return nil")
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
	// Flip a byte in the middle (section payload): the file digest
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
	h.Bytes(b)
	if h.Sum() != Digest(b) {
		t.Error("streaming hasher disagrees with one-shot digest")
	}
}
