package mp

//go:generate go run parroute/cmd/mpgen

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sync"
)

// The parroute-mpwire/1 flat binary codec: the length-prefixed
// little-endian encoding the mpgen-generated AppendWire/DecodeWire
// methods implement. Integers travel as fixed-width little-endian
// (8 bytes for int/int64/uint64, 1 byte for bool and byte-sized types),
// strings and slices carry a u32 length/count prefix, and interface
// values carry a u32 wire type id plus a u32 body length. Every payload
// type has a registered codec — the generated ones and the four builtin
// shapes the collectives send ([]any, []int32, int, bool) — and a value
// of any other type cannot be encoded. The encoding is canonical — one
// byte sequence per value — which is what lets FuzzCodec assert
// encode→decode→re-encode byte-identity.
//
// This file is the hand-written substrate: append/consume primitives,
// the builtin payload codecs, and the wire-id registry generated init
// functions populate. The per-type codecs themselves live in the
// mpwire_gen.go files (`go generate ./...` or `go run parroute/cmd/mpgen`
// regenerates them; `mpgen -check` is the CI drift gate).

// WireSchemaVersion names the codec format carried in the protocol
// manifest (mp_protocol.json).
const WireSchemaVersion = "parroute-mpwire/1"

// ErrWire is wrapped by every decode error: truncated input, oversized
// counts, or malformed values.
var ErrWire = errors.New("mp: malformed wire data")

func wireErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrWire, fmt.Sprintf(format, args...))
}

// AppendUint32 appends v in little-endian order.
func AppendUint32(buf []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(buf, v)
}

// AppendUint64 appends v in little-endian order.
func AppendUint64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

// AppendInt appends v as a little-endian int64.
func AppendInt(buf []byte, v int) []byte {
	return AppendUint64(buf, uint64(int64(v)))
}

// AppendInt64 appends v in little-endian order.
func AppendInt64(buf []byte, v int64) []byte {
	return AppendUint64(buf, uint64(v))
}

// AppendBool appends v as one byte (0 or 1).
func AppendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendString appends a u32 length prefix and the string bytes.
func AppendString(buf []byte, s string) []byte {
	buf = AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// WireUint32 consumes a little-endian u32.
func WireUint32(data []byte) (uint32, []byte, error) {
	if len(data) < 4 {
		return 0, nil, wireErr("truncated uint32: %d byte(s) left", len(data))
	}
	return binary.LittleEndian.Uint32(data), data[4:], nil
}

// WireUint64 consumes a little-endian u64.
func WireUint64(data []byte) (uint64, []byte, error) {
	if len(data) < 8 {
		return 0, nil, wireErr("truncated uint64: %d byte(s) left", len(data))
	}
	return binary.LittleEndian.Uint64(data), data[8:], nil
}

// WireInt consumes a little-endian int64 as an int.
func WireInt(data []byte) (int, []byte, error) {
	v, rest, err := WireUint64(data)
	return int(int64(v)), rest, err
}

// WireInt64 consumes a little-endian int64.
func WireInt64(data []byte) (int64, []byte, error) {
	v, rest, err := WireUint64(data)
	return int64(v), rest, err
}

// WireByte consumes one byte.
func WireByte(data []byte) (byte, []byte, error) {
	if len(data) < 1 {
		return 0, nil, wireErr("truncated byte")
	}
	return data[0], data[1:], nil
}

// WireBool consumes one byte, rejecting values other than 0 and 1 so the
// encoding stays canonical (decode→re-encode is byte-identical).
func WireBool(data []byte) (bool, []byte, error) {
	b, rest, err := WireByte(data)
	if err != nil {
		return false, nil, err
	}
	if b > 1 {
		return false, nil, wireErr("bool byte %d is not 0 or 1", b)
	}
	return b == 1, rest, nil
}

// WireString consumes a u32 length prefix and that many bytes.
func WireString(data []byte) (string, []byte, error) {
	n, rest, err := WireUint32(data)
	if err != nil {
		return "", nil, err
	}
	if uint64(n) > uint64(len(rest)) {
		return "", nil, wireErr("string length %d exceeds %d remaining byte(s)", n, len(rest))
	}
	return string(rest[:n]), rest[n:], nil
}

// WireCount consumes a u32 element count, bounding it by the remaining
// input at width bytes per element — the fewest bytes one element's
// encoding can take. A count the input cannot hold is rejected before
// the caller sizes an allocation from it, so a decoder never allocates
// more than a small multiple of the bytes it was handed.
func WireCount(data []byte, width int) (int, []byte, error) {
	n, rest, err := WireUint32(data)
	if err != nil {
		return 0, nil, err
	}
	if uint64(n)*uint64(width) > uint64(len(rest)) {
		return 0, nil, wireErr("count %d of %d-byte elements exceeds %d remaining byte(s)", n, width, len(rest))
	}
	return int(n), rest, nil
}

// ---- interface (any) encoding ----

// maxAnyDepth bounds how deeply interface values nest inside one
// another (a chaosMsg wrapping a []any of ints is three deep). The
// codecs recurse once per level, so without a bound a peer's frame of a
// few megabytes nesting chaosMsg in chaosMsg would overflow the reader's
// stack. Encode and decode enforce the same bound.
const maxAnyDepth = 8

// anyCodec adapts one registered payload type to the interface encoding.
// depth is the number of interface values enclosing the one being
// encoded or decoded; codecs of types that hold interface values pass it
// on to appendAny/wireAny.
type anyCodec struct {
	id  uint32
	app func(v any, buf []byte, depth int) ([]byte, error)
	dec func(data []byte, depth int) (any, []byte, error)
}

var wireRegistry = struct {
	sync.RWMutex
	byID   map[uint32]*anyCodec
	byType map[reflect.Type]*anyCodec
}{
	byID:   map[uint32]*anyCodec{},
	byType: map[reflect.Type]*anyCodec{},
}

// RegisterWireCodec registers the flat codec for the concrete type of
// prototype under the manifest's wire id, making values of that type
// cross AppendAny/WireAny. Called from generated init functions; id 0 or
// a conflicting re-registration panics.
func RegisterWireCodec(id uint32, prototype any,
	app func(v any, buf []byte, depth int) ([]byte, error),
	dec func(data []byte, depth int) (any, []byte, error)) {
	if id == 0 {
		panic("mp: RegisterWireCodec: wire id 0 is not a valid id") //lint:allow panic-in-library registration-time programming error in generated init code
	}
	t := reflect.TypeOf(prototype)
	wireRegistry.Lock()
	defer wireRegistry.Unlock()
	if prev, ok := wireRegistry.byID[id]; ok && prev != wireRegistry.byType[t] {
		panic(fmt.Sprintf("mp: RegisterWireCodec: id %d already registered", id)) //lint:allow panic-in-library registration-time programming error in generated init code
	}
	c := &anyCodec{id: id, app: app, dec: dec}
	wireRegistry.byID[id] = c
	wireRegistry.byType[t] = c
}

func codecByType(v any) *anyCodec {
	wireRegistry.RLock()
	defer wireRegistry.RUnlock()
	return wireRegistry.byType[reflect.TypeOf(v)]
}

func codecByID(id uint32) *anyCodec {
	wireRegistry.RLock()
	defer wireRegistry.RUnlock()
	return wireRegistry.byID[id]
}

// AppendAny appends an interface value: u32 wire id, u32 body length,
// body. A value whose type has no registered codec is an error naming
// the type.
func AppendAny(buf []byte, v any) ([]byte, error) {
	return appendAny(buf, v, 0)
}

func appendAny(buf []byte, v any, depth int) ([]byte, error) {
	if depth >= maxAnyDepth {
		return nil, wireErr("interface values nested deeper than %d", maxAnyDepth)
	}
	c := codecByType(v)
	if c == nil {
		return nil, fmt.Errorf("mp: AppendAny: no wire codec registered for %T", v)
	}
	buf = AppendUint32(buf, c.id)
	lenAt := len(buf)
	buf = AppendUint32(buf, 0) // patched below
	buf, err := c.app(v, buf, depth+1)
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(buf[lenAt:], uint32(len(buf)-lenAt-4))
	return buf, nil
}

// WireAny consumes an interface value written by AppendAny.
func WireAny(data []byte) (any, []byte, error) {
	return wireAny(data, 0)
}

func wireAny(data []byte, depth int) (any, []byte, error) {
	if depth >= maxAnyDepth {
		return nil, nil, wireErr("interface values nested deeper than %d", maxAnyDepth)
	}
	id, rest, err := WireUint32(data)
	if err != nil {
		return nil, nil, err
	}
	n, rest, err := WireUint32(rest)
	if err != nil {
		return nil, nil, err
	}
	if uint64(n) > uint64(len(rest)) {
		return nil, nil, wireErr("any body length %d exceeds %d remaining byte(s)", n, len(rest))
	}
	body, tail := rest[:n], rest[n:]
	c := codecByID(id)
	if c == nil {
		return nil, nil, wireErr("unknown wire type id %d", id)
	}
	v, after, err := c.dec(body, depth+1)
	if err != nil {
		return nil, nil, err
	}
	if len(after) != 0 {
		return nil, nil, wireErr("wire type id %d left %d undecoded byte(s)", id, len(after))
	}
	return v, tail, nil
}

// anyWireSize prices an interface field the way the flat codec frames
// it: the per-element header (type id + length) plus the payload's own
// flat price. Used by generated WireSize methods (chaosMsg).
func anyWireSize(v any) int {
	return elemHeader + elemSize(v)
}

// ---- builtin payload codecs ----

// The four builtin shapes the collectives send: []any (Gather/Allgather
// results relayed by Bcast), []int32 (AllreduceInt32s, the net-wise
// grid density), int and bool (AllreduceInt, barrier tokens). The
// generated init registers them under the manifest's builtin wire ids.

// appendAnySlice encodes a []any: u32 count, then each element as AppendAny.
func appendAnySlice(v any, buf []byte, depth int) ([]byte, error) {
	s := v.([]any)
	buf = AppendUint32(buf, uint32(len(s)))
	var err error
	for _, e := range s {
		if buf, err = appendAny(buf, e, depth); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func decodeAnySlice(data []byte, depth int) (any, []byte, error) {
	n, data, err := WireCount(data, elemHeader)
	if err != nil {
		return nil, nil, err
	}
	s := make([]any, n)
	for i := range s {
		if s[i], data, err = wireAny(data, depth); err != nil {
			return nil, nil, err
		}
	}
	return s, data, nil
}

// appendInt32Slice encodes a []int32: u32 count, then 4 bytes LE each.
func appendInt32Slice(v any, buf []byte, _ int) ([]byte, error) {
	s := v.([]int32)
	buf = AppendUint32(buf, uint32(len(s)))
	for _, x := range s {
		buf = AppendUint32(buf, uint32(x))
	}
	return buf, nil
}

func decodeInt32Slice(data []byte, _ int) (any, []byte, error) {
	n, data, err := WireCount(data, 4)
	if err != nil {
		return nil, nil, err
	}
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
	}
	return s, data[4*n:], nil
}

func appendIntValue(v any, buf []byte, _ int) ([]byte, error) {
	return AppendInt(buf, v.(int)), nil
}

func decodeIntValue(data []byte, _ int) (any, []byte, error) {
	return WireInt(data)
}

func appendBoolValue(v any, buf []byte, _ int) ([]byte, error) {
	return AppendBool(buf, v.(bool)), nil
}

func decodeBoolValue(data []byte, _ int) (any, []byte, error) {
	return WireBool(data)
}
