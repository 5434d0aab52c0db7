package binio

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundtripPrimitives(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Magic("HDR1")
	w.U8(7)
	w.I32(-42)
	w.I64(1 << 50)
	w.I32Slice([]int32{1, -2, 3})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	r.Magic("HDR1")
	if v := r.U8(); v != 7 {
		t.Errorf("U8 = %d", v)
	}
	if v := r.I32(); v != -42 {
		t.Errorf("I32 = %d", v)
	}
	if v := r.I64(); v != 1<<50 {
		t.Errorf("I64 = %d", v)
	}
	s32 := r.I32Slice()
	if len(s32) != 3 || s32[1] != -2 {
		t.Errorf("I32Slice = %v", s32)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundtripProperty(t *testing.T) {
	f := func(a []int32, b uint8, c int64) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.I32Slice(a)
		w.U8(b)
		w.I64(c)
		if w.Flush() != nil {
			return false
		}
		r := NewReader(&buf)
		ga := r.I32Slice()
		gb := r.U8()
		gc := r.I64()
		if r.Err() != nil || gc != c || gb != b || len(ga) != len(a) {
			return false
		}
		for i := range a {
			if ga[i] != a[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBadMagic(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Magic("AAAA")
	_ = w.Flush()
	r := NewReader(&buf)
	r.Magic("BBBB")
	if r.Err() == nil {
		t.Error("expected magic mismatch error")
	}
}

func TestTruncatedInput(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.I32Slice(make([]int32, 100))
	_ = w.Flush()
	data := buf.Bytes()[:50] // cut mid-slice
	r := NewReader(bytes.NewReader(data))
	r.I32Slice()
	if r.Err() == nil {
		t.Error("expected truncation error")
	}
}

func TestCorruptLength(t *testing.T) {
	// A negative or absurd length must be rejected, not allocated.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.I64(-5)
	_ = w.Flush()
	r := NewReader(&buf)
	r.I32Slice()
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "implausible") {
		t.Errorf("expected implausible-length error, got %v", r.Err())
	}
}

func TestStickyErrors(t *testing.T) {
	r := NewReader(bytes.NewReader(nil))
	r.I64() // fails: empty input
	if r.Err() == nil {
		t.Fatal("expected error on empty input")
	}
	// Further reads stay failed and return zero values.
	if v := r.I32(); v != 0 {
		t.Errorf("read after error returned %d", v)
	}
	if s := r.I32Slice(); s != nil {
		t.Errorf("slice after error returned %v", s)
	}
}
