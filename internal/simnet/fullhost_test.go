package simnet

import (
	"testing"
	"unsafe"
)

// TestFullHostSize pins a full node's host record to the allocator's
// 128-byte class, whose objects start on a cache-line boundary.
func TestFullHostSize(t *testing.T) {
	if size := unsafe.Sizeof(fullHost{}); size != 128 {
		t.Errorf("fullHost is %d bytes, want 128", size)
	}
}
