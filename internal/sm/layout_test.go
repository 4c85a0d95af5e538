package sm

import (
	"testing"
	"unsafe"
)

// warpSink makes the test's warps escape, so they are allocated the way
// activateBlock allocates them.
var warpSink []*warpRT

// TestWarpHotFieldsFitOneLine pins the layout doFetch and doIssue rely
// on: every warpRT field their per-warp checks read lies in the first
// 64 bytes, and heap-allocated warps start on a 64-byte boundary, so
// those bytes are one cache line. The allocator puts an 8-byte header
// in front of objects over 512 bytes, so growing warpRT past 512 bytes
// fails the alignment half.
func TestWarpHotFieldsFitOneLine(t *testing.T) {
	var w warpRT
	hot := map[string]uintptr{
		"block":             unsafe.Offsetof(w.block) + unsafe.Sizeof(w.block),
		"bufIn":             unsafe.Offsetof(w.bufIn) + unsafe.Sizeof(w.bufIn),
		"bufReady":          unsafe.Offsetof(w.bufReady) + unsafe.Sizeof(w.bufReady),
		"faultsOutstanding": unsafe.Offsetof(w.faultsOutstanding) + unsafe.Sizeof(w.faultsOutstanding),
		"done":              unsafe.Offsetof(w.done) + unsafe.Sizeof(w.done),
		"atBarrier":         unsafe.Offsetof(w.atBarrier) + unsafe.Sizeof(w.atBarrier),
		"fetchBlock":        unsafe.Offsetof(w.fetchBlock) + unsafe.Sizeof(w.fetchBlock),
		"bufReplay":         unsafe.Offsetof(w.bufReplay) + unsafe.Sizeof(w.bufReplay),
		"pendWrite":         unsafe.Offsetof(w.pendWrite) + unsafe.Sizeof(w.pendWrite),
	}
	for name, end := range hot {
		if end > 64 {
			t.Errorf("warpRT.%s ends at byte %d, past the first cache line", name, end)
		}
	}
	for i := 0; i < 8; i++ {
		warpSink = append(warpSink, &warpRT{})
	}
	for i, p := range warpSink {
		if a := uintptr(unsafe.Pointer(p)); a%64 != 0 {
			t.Errorf("warp %d allocated at %#x, not 64-byte aligned (warpRT is %d bytes)", i, a, unsafe.Sizeof(w))
		}
	}
	warpSink = nil
}
