package emu

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// hasPointers reports whether values of t hold anything the garbage
// collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
		return true
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

func TestTraceInstLayout(t *testing.T) {
	if got := unsafe.Sizeof(TraceInst{}); got != 16 {
		t.Errorf("TraceInst is %d bytes, want 16", got)
	}
	typ := reflect.TypeOf(TraceInst{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); hasPointers(f.Type) {
			t.Errorf("TraceInst.%s (%v) holds a pointer", f.Name, f.Type)
		}
	}
}

// TestCoalesceAppendMatchesFresh: coalescing into the block's shared
// line buffer yields, for the new instruction, exactly the lines a
// fresh per-instruction coalesce would — lines already in the buffer
// from earlier instructions are repeated, not deduplicated away.
func TestCoalesceAppendMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf []uint64
	for iter := 0; iter < 500; iter++ {
		var addrs [32]uint64
		base := uint64(rng.Intn(4)) << 12
		for lane := range addrs {
			addrs[lane] = base + uint64(rng.Intn(64))*8
		}
		mask := rng.Uint32()
		size := 4 << rng.Intn(2)
		want := coalesce(nil, 0, &addrs, mask, size, 128)
		from := len(buf)
		buf = coalesce(buf, from, &addrs, mask, size, 128)
		if got := buf[from:]; !slices.Equal(got, want) {
			t.Fatalf("iter %d: appended lines %#x, fresh coalesce %#x", iter, got, want)
		}
	}
}
