package wire

import (
	"bytes"
	"testing"
)

// TestRecycledMessages: a constructor-made message encodes exactly like the
// literal with the same fields, Release zeroes it, and Release leaves every
// message no constructor made untouched.
func TestRecycledMessages(t *testing.T) {
	for _, c := range []struct {
		made, literal Message
	}{
		{NewDataRequest(3, 1<<40, 8), &DataRequest{Channel: 3, Seq: 1 << 40, Count: 8}},
		{NewDataReply(3, 77, 2, SubPieceSize, false), &DataReply{Channel: 3, Seq: 77, Count: 2, PieceLen: SubPieceSize}},
		{NewDataReply(3, 77, 0, SubPieceSize, true), &DataReply{Channel: 3, Seq: 77, PieceLen: SubPieceSize, Busy: true}},
		{NewHave(3, 9, 1), &Have{Channel: 3, Seq: 9, Count: 1}},
	} {
		if got, want := Marshal(c.made), Marshal(c.literal); !bytes.Equal(got, want) {
			t.Errorf("%s: constructor encodes %x, literal %x", c.made.Kind(), got, want)
		}
		before := Marshal(c.literal)
		Release(c.literal)
		if after := Marshal(c.literal); !bytes.Equal(after, before) {
			t.Errorf("%s: Release changed a literal", c.literal.Kind())
		}
		kind := c.made.Kind()
		Release(c.made)
		if zero := kinds[kind].new(); !bytes.Equal(Marshal(c.made), Marshal(zero)) {
			t.Errorf("%s: Release left the message non-zero", kind)
		}
	}
	// The flag is the constructor's alone: a decoded copy is a literal.
	decoded, err := Unmarshal(Marshal(NewHave(1, 2, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if decoded.(*Have).pooled {
		t.Error("Unmarshal returned a message Release would recycle")
	}
}
