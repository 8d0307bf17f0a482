package mp

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestWirePrimitivesRoundTrip(t *testing.T) {
	var buf []byte
	buf = AppendUint32(buf, 0xDEADBEEF)
	buf = AppendUint64(buf, 1<<63|42)
	buf = AppendInt(buf, -7)
	buf = AppendInt64(buf, -1e12)
	buf = AppendBool(buf, true)
	buf = AppendBool(buf, false)
	buf = AppendString(buf, "héllo")

	u32, rest, err := WireUint32(buf)
	if err != nil || u32 != 0xDEADBEEF {
		t.Fatalf("u32 = %x, err %v", u32, err)
	}
	u64, rest, err := WireUint64(rest)
	if err != nil || u64 != 1<<63|42 {
		t.Fatalf("u64 = %x, err %v", u64, err)
	}
	i, rest, err := WireInt(rest)
	if err != nil || i != -7 {
		t.Fatalf("int = %d, err %v", i, err)
	}
	i64, rest, err := WireInt64(rest)
	if err != nil || i64 != -1e12 {
		t.Fatalf("int64 = %d, err %v", i64, err)
	}
	b1, rest, err := WireBool(rest)
	if err != nil || !b1 {
		t.Fatalf("bool = %v, err %v", b1, err)
	}
	b2, rest, err := WireBool(rest)
	if err != nil || b2 {
		t.Fatalf("bool = %v, err %v", b2, err)
	}
	s, rest, err := WireString(rest)
	if err != nil || s != "héllo" {
		t.Fatalf("string = %q, err %v", s, err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d byte(s) left", len(rest))
	}
}

func TestWireDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		err  error
	}{
		{"truncated u32", func() error { _, _, err := WireUint32([]byte{1, 2}); return err }()},
		{"truncated u64", func() error { _, _, err := WireUint64([]byte{1}); return err }()},
		{"truncated byte", func() error { _, _, err := WireByte(nil); return err }()},
		{"non-canonical bool", func() error { _, _, err := WireBool([]byte{2}); return err }()},
		{"string overrun", func() error { _, _, err := WireString([]byte{5, 0, 0, 0, 'a'}); return err }()},
		{"count overrun", func() error { _, _, err := WireCount([]byte{200, 0, 0, 0, 1}, 1); return err }()},
	}
	for _, tc := range cases {
		if !errors.Is(tc.err, ErrWire) {
			t.Errorf("%s: err = %v, want ErrWire", tc.name, tc.err)
		}
	}
}

func TestWireCountBoundsAllocation(t *testing.T) {
	// A count prefix larger than the remaining input must be rejected up
	// front: every element consumes at least one byte, so the count could
	// never be satisfied and would only force a huge allocation.
	data := AppendUint32(nil, 1<<30)
	if _, _, err := WireCount(data, 1); !errors.Is(err, ErrWire) {
		t.Fatalf("oversized count accepted: %v", err)
	}
	// The bound scales with the element width: 3 bytes hold three 1-byte
	// elements but not one 4-byte element.
	data = append(AppendUint32(nil, 1), 0, 0, 0)
	if _, _, err := WireCount(data, 1); err != nil {
		t.Fatalf("satisfiable count rejected: %v", err)
	}
	if _, _, err := WireCount(data, 4); !errors.Is(err, ErrWire) {
		t.Fatalf("count of 4-byte elements in 3 bytes accepted: %v", err)
	}
}

// unregisteredPayload has no wire codec.
type unregisteredPayload struct{ A, B int }

func TestAppendAnyUnencodable(t *testing.T) {
	// Only types with a registered codec encode; anything else is an
	// error naming the type, also when nested inside a codec-backed value.
	for _, v := range []any{func() {}, unregisteredPayload{A: 3, B: 9}, "str", nil} {
		_, err := AppendAny(nil, v)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%T", v)) {
			t.Errorf("AppendAny(%T) = %v, want an error naming the type", v, err)
		}
	}
	if _, err := AppendAny(nil, []any{1, unregisteredPayload{}}); err == nil {
		t.Error("[]any holding an unregistered type encoded")
	}
}

func TestTCPSendUnregisteredTypeFails(t *testing.T) {
	// A payload without a codec fails the send before any byte reaches
	// the socket; the run surfaces the error instead of crashing.
	cfg := Config{Procs: 2, Mode: TCP}
	_, err := cfg.Run(func(c Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 1, unregisteredPayload{A: 1})
		}
		_, err := c.Recv(0, 1)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "mp.unregisteredPayload") {
		t.Fatalf("send of an unregistered type = %v, want an error naming it", err)
	}
}

// builtinPayloads holds one value of each builtin payload shape, keyed
// by the wire id mp_protocol.json assigns it.
var builtinPayloads = map[uint32]any{
	7:  []any{1, false, []int32{-1, 2}, []any{}},
	8:  []int32{0, -7, 1 << 30},
	9:  true,
	10: -1 << 40,
}

func TestBuiltinCodecsRoundTrip(t *testing.T) {
	for wantID, v := range builtinPayloads {
		enc, err := AppendAny(nil, v)
		if err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		if id, _, _ := WireUint32(enc); id != wantID {
			t.Errorf("%T: wire id %d, want %d", v, id, wantID)
		}
		got, rest, err := WireAny(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%T: decode %v, %d byte(s) left", v, err, len(rest))
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("%T: round trip = %#v, want %#v", v, got, v)
		}
		if re, _ := AppendAny(nil, got); !bytes.Equal(re, enc) {
			t.Errorf("%T: re-encode differs:\n got %x\nwant %x", v, re, enc)
		}
	}
	// The []int32 body is a u32 count then 4 LE bytes per element.
	enc, _ := AppendAny(nil, []int32{1, -1})
	want := []byte{8, 0, 0, 0, 12, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}
	if !bytes.Equal(enc, want) {
		t.Errorf("[]int32 encoding = %x, want %x", enc, want)
	}
}

func TestWireAnyRejectsIDZero(t *testing.T) {
	// Id 0 once meant a gob body; it is now just an unknown id.
	body := AppendUint32(AppendUint32(nil, 0), 1)
	if _, _, err := WireAny(append(body, 0)); !errors.Is(err, ErrWire) {
		t.Fatalf("id-0 body = %v, want ErrWire", err)
	}
}

// nestedChaos wraps v in depth chaosMsg layers.
func nestedChaos(v any, depth int) any {
	for i := 0; i < depth; i++ {
		v = chaosMsg{Seq: uint64(i), V: v}
	}
	return v
}

// TestWireAnyNestingBounded is the regression test for a stack overflow:
// WireAny recursed once per nested chaosMsg with no limit, so a peer's
// frame nesting millions of them crashed the socket reader with an
// unrecoverable fatal error. Nesting up to maxAnyDepth interface values
// round-trips; one more fails cleanly on both encode and frame decode.
func TestWireAnyNestingBounded(t *testing.T) {
	ok := nestedChaos(true, maxAnyDepth-1) // maxAnyDepth interface values
	enc, err := AppendAny(nil, ok)
	if err != nil {
		t.Fatalf("depth %d refused: %v", maxAnyDepth, err)
	}
	if got, _, err := WireAny(enc); err != nil || !reflect.DeepEqual(got, ok) {
		t.Fatalf("depth %d: %v / %#v", maxAnyDepth, err, got)
	}

	if _, err := AppendAny(nil, chaosMsg{V: ok}); !errors.Is(err, ErrWire) {
		t.Errorf("encoding depth %d = %v, want ErrWire", maxAnyDepth+1, err)
	}
	// The frame body a peer could send: src, tag, then the accepted
	// encoding wrapped in one more chaosMsg header by hand.
	deep := AppendInt(AppendInt(nil, 1), 7)
	deep = AppendUint32(deep, 1)
	deep = AppendUint32(deep, uint32(8+len(enc)))
	deep = AppendUint64(deep, 0)
	deep = append(deep, enc...)
	if _, _, _, err := decodeFrameBody(deep); !errors.Is(err, ErrWire) {
		t.Errorf("decoding a frame %d deep = %v, want ErrWire", maxAnyDepth+1, err)
	}
}

// TestBuiltinSliceDecodeAllocBounded is the regression test for count
// prefixes checked only against one byte per element: a slice decoder
// sized its allocation from a count the remaining bytes could never
// hold. Every count the body cannot hold at the element's minimum width
// is now rejected before allocating, so even the largest count costs at
// most a small multiple of the body.
func TestBuiltinSliceDecodeAllocBounded(t *testing.T) {
	const n = 1 << 16
	for _, tc := range []struct {
		name  string
		id    uint32
		width int
	}{{"[]any", 7, elemHeader}, {"[]int32", 8, 4}} {
		fits := uint32((n - 4) / tc.width) // the largest count the body holds
		for _, count := range []uint32{fits, fits + 1, n - 4, 1<<32 - 1} {
			body := make([]byte, n)
			copy(body, AppendUint32(nil, count))
			var err error
			allocated := allocBytes(func() {
				_, _, err = codecByID(tc.id).dec(body, 1)
			})
			if count > fits && !errors.Is(err, ErrWire) {
				t.Errorf("%s count %d in %d bytes: err = %v, want ErrWire", tc.name, count, n, err)
			}
			if allocated > 4*n {
				t.Errorf("%s count %d in %d bytes allocated %d bytes", tc.name, count, n, allocated)
			}
		}
	}
}

// allocBytes reports the bytes f allocates on the heap.
func allocBytes(f func()) int {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int(after.TotalAlloc - before.TotalAlloc)
}

func TestChaosMsgCodecRoundTrip(t *testing.T) {
	// chaosMsg is the one generated codec in this package: its encoder
	// must produce the flat id-1 framing, round-trip, and re-encode
	// byte-identically.
	msg := chaosMsg{Seq: 99, V: []any{1, []int32{2, 3}}}
	enc, err := AppendAny(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := WireUint32(enc)
	if err != nil || id != 1 {
		t.Fatalf("wire id = %d, err %v; want chaosMsg (1)", id, err)
	}
	v, rest, err := WireAny(enc)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v, %d byte(s) left", err, len(rest))
	}
	got, ok := v.(chaosMsg)
	if !ok || got.Seq != 99 || !reflect.DeepEqual(got.V, msg.V) {
		t.Fatalf("round trip = %#v", v)
	}
	re, err := AppendAny(nil, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, re) {
		t.Fatalf("re-encode differs:\n got %x\nwant %x", re, enc)
	}
}

func TestChaosMsgWireSizeFlat(t *testing.T) {
	// The chaos wrapper must price flat — 8 bytes of sequence number plus
	// the wrapped payload's own flat body behind one element header — so a
	// chaos run costs what the application message costs, not a
	// re-encode of the whole envelope.
	inner := sizedBatch(7)
	msg := chaosMsg{Seq: 4, V: inner}
	if got, want := msg.WireSize(), 8+elemHeader+inner.WireSize(); got != want {
		t.Fatalf("chaosMsg.WireSize() = %d, want %d", got, want)
	}
	// End to end through payloadSize: one frame for the chaos message, not
	// a second one for the wrapped payload.
	if got, want := payloadSize(msg), frameOverhead+8+elemHeader+inner.WireSize(); got != want {
		t.Fatalf("payloadSize(chaosMsg) = %d, want %d", got, want)
	}
}

// anyCodecSeeds are encodings of every builtin, a nested []any inside a
// chaosMsg, and an id-0 body (which must be rejected).
func anyCodecSeeds(f *testing.F) [][]byte {
	var seeds [][]byte
	for _, v := range []any{
		builtinPayloads[7], builtinPayloads[8], builtinPayloads[9], builtinPayloads[10],
		chaosMsg{Seq: 12, V: []any{[]any{5, true}, []int32{6}}},
	} {
		enc, err := AppendAny(nil, v)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, enc)
	}
	return append(seeds, AppendUint32(AppendUint32(nil, 0), 0))
}

// FuzzAnyCodec drives WireAny with arbitrary bytes: every input it
// accepts must re-encode byte-identically (canonical encoding) and
// round-trip by value.
func FuzzAnyCodec(f *testing.F) {
	for _, seed := range anyCodecSeeds(f) {
		f.Add(seed)
	}
	f.Add(AppendUint32(AppendUint32(nil, 1), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, rest, err := WireAny(data)
		if err != nil {
			return
		}
		re, err := AppendAny(nil, v)
		if err != nil {
			t.Fatalf("decoded value failed to re-encode: %v", err)
		}
		if consumed := data[:len(data)-len(rest)]; !bytes.Equal(consumed, re) {
			t.Fatalf("decode/encode not canonical:\nconsumed %x\nre-enc   %x", consumed, re)
		}
		v2, _, err := WireAny(re)
		if err != nil || !reflect.DeepEqual(v, v2) {
			t.Fatalf("re-encoded value did not round-trip: %v / %#v vs %#v", err, v, v2)
		}
	})
}
