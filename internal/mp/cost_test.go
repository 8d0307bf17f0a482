package mp

import "testing"

// sizedPayload implements Sizer with a fixed answer so the fast path is
// distinguishable from any other pricing.
type sizedPayload struct{ N int }

func (p sizedPayload) WireSize() int { return 12345 }

func TestPayloadSizeSizerFastPath(t *testing.T) {
	if got := payloadSize(sizedPayload{N: 7}); got != frameOverhead+12345 {
		t.Fatalf("Sizer payload priced at %d, want %d", got, frameOverhead+12345)
	}
}

func TestPayloadSizeBuiltinShapes(t *testing.T) {
	cases := []struct {
		name string
		v    any
		want int
	}{
		{"int32-slice", []int32{1, 2, 3}, frameOverhead + 12},
		{"empty-int32-slice", []int32{}, frameOverhead},
		{"int", 42, frameOverhead + 8},
		{"bool", true, frameOverhead + 1},
		// One message frame for the whole slice; each element pays only
		// the flat per-element header, never a second message frame.
		{"any-slice", []any{42, true}, frameOverhead + (elemHeader + 8) + (elemHeader + 1)},
	}
	for _, tc := range cases {
		if got := payloadSize(tc.v); got != tc.want {
			t.Errorf("%s priced at %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestPayloadSizeBuiltinsPinned pins the builtin shapes' prices to the
// byte counts the Virtual engine has always charged: their flat codecs
// must not move a single simulated transfer time.
func TestPayloadSizeBuiltinsPinned(t *testing.T) {
	cases := []struct {
		name string
		v    any
		want int
	}{
		{"int32-slice", []int32{1, 2, 3}, 28},
		{"nil-int32-slice", []int32(nil), 16},
		{"int", 42, 24},
		{"bool", false, 17},
		{"any-slice", []any{42, true, []int32{7}}, 53},
		{"nested-any-slice", []any{[]any{1}}, 40},
	}
	for _, tc := range cases {
		if got := payloadSize(tc.v); got != tc.want {
			t.Errorf("%s priced at %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestPayloadSizeUnencodable(t *testing.T) {
	// A payload with neither WireSize nor a builtin shape has no codec
	// (the TCP engine refuses it); the Virtual engine must never alter
	// program behaviour, so it prices it at a fixed size instead.
	type plain struct{ A, B int }
	for _, v := range []any{func() {}, plain{A: 1, B: 2}, "a string"} {
		if got := payloadSize(v); got != 64 {
			t.Errorf("%T priced at %d, want 64", v, got)
		}
	}
}

func TestPayloadSizeSizerScalesWithLength(t *testing.T) {
	// The batch pricing contract: a Sizer batch twice as long costs twice
	// the per-element bytes on top of the same frame overhead.
	one := payloadSize(sizedBatch(1))
	two := payloadSize(sizedBatch(2))
	if two-one != one-payloadSize(sizedBatch(0)) {
		t.Fatalf("batch pricing not linear: 0->%d 1->%d 2->%d",
			payloadSize(sizedBatch(0)), one, two)
	}
}

type sizedBatch int

func (b sizedBatch) WireSize() int { return int(b) * 25 }

// TestPayloadSizeAnySliceDifferential is the satellite audit of the
// []any recursion against the Sizer fast path: relaying N flat batches
// through one []any message (the Alltoall shape) must price each batch
// at exactly its WireSize plus the flat per-element header — the old
// recursion charged a full per-message frame per element, overpricing
// every collective round by (frameOverhead-elemHeader)·N bytes.
func TestPayloadSizeAnySliceDifferential(t *testing.T) {
	batches := []any{sizedBatch(3), sizedBatch(0), sizedBatch(17)}
	want := frameOverhead
	for _, b := range batches {
		want += elemHeader + b.(Sizer).WireSize()
	}
	if got := payloadSize(batches); got != want {
		t.Fatalf("[]any of Sizers priced at %d, want %d", got, want)
	}
	// Consistency with the flat batch encodings: a []any wrapping one
	// batch costs exactly one element header more than sending the batch
	// alone.
	alone := payloadSize(sizedBatch(5))
	wrapped := payloadSize([]any{sizedBatch(5)})
	if wrapped-alone != elemHeader {
		t.Fatalf("wrapping overhead = %d, want elemHeader (%d)", wrapped-alone, elemHeader)
	}
	// Nested []any (Alltoall relaying Allgather results) still charges
	// one frame total.
	nested := payloadSize([]any{[]any{sizedBatch(2)}})
	if nested != frameOverhead+elemHeader+elemHeader+sizedBatch(2).WireSize() {
		t.Fatalf("nested []any priced at %d", nested)
	}
}
