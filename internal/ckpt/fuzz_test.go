package ckpt

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to Decode. Decode must never panic,
// and any input it accepts must be canonical: re-encoding the decoded
// checkpoint reproduces the input byte for byte. Random bytes almost
// never carry a matching file digest, so each input is also decoded
// with its trailing digest restamped; that reaches the header and
// section parser behind the digest gate.
func FuzzDecode(f *testing.F) {
	good := sampleCheckpoint().Encode()
	f.Add(good)
	for _, cut := range []int{0, len(Magic), len(Magic) + 8, len(good) / 2, len(good) - 8, len(good) - 1} {
		f.Add(good[:cut])
	}
	for _, at := range []int{0, len(Magic), len(Magic) + 4, len(good) / 2, len(good) - 1} {
		flipped := append([]byte(nil), good...)
		flipped[at] ^= 0x01
		f.Add(flipped)
	}
	// v2 envelope edges: no sections, a section count the file cannot
	// hold, and a name length running past the end. Each body gets a
	// valid file digest so the fuzz body's restamp is a no-op.
	f.Add((&Checkpoint{Version: Version}).Encode())
	header := good[:len(Magic)+4+8+8+8]
	for _, tail := range [][]byte{
		binary.LittleEndian.AppendUint32(nil, 0xffffffff),
		binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(nil, 1), 1<<40),
	} {
		body := append(append([]byte(nil), header...), tail...)
		f.Add(binary.LittleEndian.AppendUint64(body, Digest(body)))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkCanonical(t, b)
		if len(b) >= 8 {
			body := b[:len(b)-8]
			checkCanonical(t, binary.LittleEndian.AppendUint64(append([]byte(nil), body...), Digest(body)))
		}
	})
}

func checkCanonical(t *testing.T, b []byte) {
	t.Helper()
	c, err := Decode(b)
	if err != nil {
		return
	}
	if got := c.Encode(); !bytes.Equal(got, b) {
		t.Fatalf("accepted input does not re-encode identically:\n in  %x\n out %x", b, got)
	}
}
