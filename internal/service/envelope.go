// Package service is the twgrd routing daemon: a long-running HTTP/JSON
// front end over the parallel routing pipeline. It accepts routing jobs
// (a circuit preset or inline spec plus algorithm, worker count and
// seed), admits them through a bounded priority queue onto a fixed worker
// pool, streams per-stage progress by adapting the pipeline Observer
// chain onto server-sent events, and caches results keyed by (circuit,
// algo, procs, seed) — deterministic routing makes a cache hit
// byte-identical to a fresh computation, which the test tier asserts.
//
// The wire format is a versioned envelope (proto "twgrd/1") carrying a
// typed JSON body and a checksum; see Envelope. Overload surfaces as
// HTTP backpressure (429 when the queue is full, 503 while draining),
// never as a dropped job: every admitted job completes, fails, or is
// cancelled, and the tallies in Stats account for all of them.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"unicode/utf8"
)

// Proto is the wire-format version every envelope carries. A reader
// rejects any other value, so incompatible changes must bump it.
const Proto = "twgrd/1"

// Envelope kinds: one per request/response type that crosses the wire.
const (
	KindJob      = "job.submit"   // body: JobSpec
	KindResult   = "job.result"   // body: JobResult
	KindProgress = "job.progress" // body: Progress (SSE stream only)
	KindStats    = "stats"        // body: Stats
	KindError    = "error"        // body: WireError
)

// Envelope is the versioned frame every message travels in. Sum is the
// FNV-1a checksum of Proto, Kind and Body, so a truncated or spliced
// payload fails Verify before anything decodes its body.
type Envelope struct {
	Proto string          `json:"proto"`
	Kind  string          `json:"kind"`
	Body  json.RawMessage `json:"body"`
	Sum   string          `json:"sum"`
}

// checksum is the envelope integrity hash: FNV-1a over proto, kind and
// body with NUL separators (so "a"+"bc" and "ab"+"c" differ).
func checksum(proto, kind string, body []byte) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(proto)) // fnv's Write cannot fail
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(kind))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write(body)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Encode wraps a typed body in a checksummed envelope and serializes it
// as {"proto":…,"kind":…,"body":<body>,"sum":"<16 hex>"} — the exact
// layout Decode reads. The body is marshalled once and embedded
// verbatim: json.Marshal output is already compact and HTML-escaped, so
// this is byte-identical to marshalling an Envelope around it. A
// JobResult body skips reflection altogether and copies its Metrics
// bytes as they are (see JobResult.Metrics).
func Encode(kind string, body any) ([]byte, error) {
	quotedKind, _ := json.Marshal(kind) // a string always marshals
	head := `{"proto":"` + Proto + `","kind":` + string(quotedKind) + `,"body":`
	envelope := func(bodyLen int) []byte {
		return append(make([]byte, 0, len(head)+bodyLen+sumTail), head...)
	}
	res, _ := body.(*JobResult)
	if b, ok := body.(JobResult); ok {
		res = &b
	}
	var out []byte
	if res != nil {
		out = res.appendJSON(envelope(64 + len(res.Key) + len(res.Metrics)))
	} else {
		raw, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("service: encoding %s body: %w", kind, err)
		}
		out = append(envelope(len(raw)), raw...)
	}
	sum := checksum(Proto, kind, out[len(head):])
	out = append(out, `,"sum":"`...)
	out = append(out, sum...)
	return append(out, `"}`...), nil
}

// appendJSON appends r exactly as json.Marshal would write it, given
// Metrics is compact JSON; nil Metrics is written as null.
func (r *JobResult) appendJSON(dst []byte) []byte {
	key, _ := json.Marshal(r.Key) // a string always marshals
	dst = append(dst, `{"key":`...)
	dst = append(dst, key...)
	if r.CacheHit {
		dst = append(dst, `,"cacheHit":true`...)
	}
	dst = append(dst, `,"metrics":`...)
	if len(r.Metrics) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, r.Metrics...)
	}
	return append(dst, '}')
}

// sumTail is the fixed-width end of every envelope: the checksum member
// and the closing brace.
const sumTail = len(`,"sum":"0123456789abcdef"}`)

// Decode parses and verifies an envelope. It reads exactly the layout
// Encode writes — members in order proto, kind, body, sum, no whitespace
// inside, optional trailing whitespace — so the body is sliced out
// between a fixed prefix and the fixed-width checksum tail and scanned
// once, by json.Valid, instead of being re-scanned by a reflective
// decoder. Body aliases data.
//
// It rejects malformed input (any other layout, truncation, a body that
// is not valid JSON), version skew (a proto other than Proto), unknown
// kinds, and checksum mismatches — each with a distinct error so clients
// can tell a stale peer from a corrupt payload — before any body is
// decoded.
func Decode(data []byte) (*Envelope, error) {
	env, err := parseEnvelope(bytes.TrimRight(data, " \t\r\n"))
	if err != nil {
		return nil, fmt.Errorf("service: malformed envelope: %w", err)
	}
	if env.Proto != Proto {
		return nil, fmt.Errorf("service: version skew: envelope speaks %q, this daemon speaks %q", env.Proto, Proto)
	}
	switch env.Kind {
	case KindJob, KindResult, KindProgress, KindStats, KindError:
	default:
		return nil, fmt.Errorf("service: unknown envelope kind %q", env.Kind)
	}
	if err := env.Verify(); err != nil {
		return nil, err
	}
	return env, nil
}

// parseEnvelope splits {"proto":P,"kind":K,"body":B,"sum":"S"} into its
// members. P and K are taken as written between their quotes: Proto and
// the known kinds need no escaping, so an escaped proto or kind fails
// the checks that follow.
func parseEnvelope(data []byte) (*Envelope, error) {
	rest, ok := bytes.CutPrefix(data, []byte(`{"proto":`))
	if !ok {
		return nil, errors.New(`want {"proto": first`)
	}
	proto, rest, ok := cutString(rest)
	if !ok {
		return nil, errors.New("bad proto string")
	}
	if rest, ok = bytes.CutPrefix(rest, []byte(`,"kind":`)); !ok {
		return nil, errors.New(`want ,"kind": after proto`)
	}
	kind, rest, ok := cutString(rest)
	if !ok {
		return nil, errors.New("bad kind string")
	}
	if rest, ok = bytes.CutPrefix(rest, []byte(`,"body":`)); !ok {
		return nil, errors.New(`want ,"body": after kind`)
	}
	if len(rest) < sumTail {
		return nil, errors.New("truncated")
	}
	body, tail := rest[:len(rest)-sumTail], rest[len(rest)-sumTail:]
	sum := tail[len(`,"sum":"`) : sumTail-len(`"}`)]
	if !bytes.HasPrefix(tail, []byte(`,"sum":"`)) || !bytes.HasSuffix(tail, []byte(`"}`)) || !isLowerHex(sum) {
		return nil, errors.New(`want ,"sum":"<16 hex digits>"} last`)
	}
	if !isBareJSON(body) {
		return nil, errors.New("body is not valid JSON or has whitespace around it")
	}
	return &Envelope{Proto: string(proto), Kind: string(kind), Body: body, Sum: string(sum)}, nil
}

// cutString splits a JSON string token off the front of data, returning
// its raw contents (escapes left as written) and the rest.
func cutString(data []byte) (s, rest []byte, ok bool) {
	if len(data) == 0 || data[0] != '"' {
		return nil, nil, false
	}
	for i := 1; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			return data[1:i], data[i+1:], true
		case c == '\\':
			i++
		case c < 0x20:
			return nil, nil, false
		}
	}
	return nil, nil, false
}

// isBareJSON reports whether b is one valid JSON value with no
// whitespace before or after it. json.Valid allows that whitespace, but
// encoding/json leaves it out of a RawMessage it reads, so a layout read
// that kept it would disagree with a reflective one — and an envelope
// checksum would cover bytes the old decoder dropped.
func isBareJSON(b []byte) bool {
	return len(b) > 0 && !isSpace(b[0]) && !isSpace(b[len(b)-1]) && json.Valid(b)
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

func isLowerHex(b []byte) bool {
	for _, c := range b {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Verify recomputes the checksum over the envelope's fields.
func (e *Envelope) Verify() error {
	if want := checksum(e.Proto, e.Kind, e.Body); e.Sum != want {
		return fmt.Errorf("service: envelope checksum mismatch: have %s, computed %s", e.Sum, want)
	}
	return nil
}

// DecodeBody unmarshals the envelope body into a typed value, checking
// the kind first so a job.result body never decodes into a JobSpec. A
// *JobResult is read by layout (see JobResult.unmarshalLayout), and its
// Metrics aliases e.Body.
func (e *Envelope) DecodeBody(kind string, v any) error {
	if e.Kind != kind {
		return fmt.Errorf("service: envelope is %q, want %q", e.Kind, kind)
	}
	var err error
	if r, ok := v.(*JobResult); ok {
		err = r.unmarshalLayout(e.Body)
	} else {
		err = json.Unmarshal(e.Body, v)
	}
	if err != nil {
		return fmt.Errorf("service: decoding %s body: %w", kind, err)
	}
	return nil
}

// unmarshalLayout reads the layout appendJSON writes,
// {"key":K[,"cacheHit":true],"metrics":M}, and rejects any other.
// Metrics aliases body and is scanned once, by json.Valid — a result
// body is almost all metrics, which a reflective decode would scan twice
// and copy.
func (r *JobResult) unmarshalLayout(body []byte) error {
	rest, ok := bytes.CutPrefix(body, []byte(`{"key":`))
	if !ok {
		return errors.New(`want {"key": first`)
	}
	keyRaw, rest, ok := cutString(rest)
	if !ok {
		return errors.New("bad key string")
	}
	key := string(keyRaw)
	if bytes.IndexByte(keyRaw, '\\') >= 0 || !utf8.Valid(keyRaw) {
		// Unescape, and replace invalid UTF-8, as encoding/json does.
		if err := json.Unmarshal(body[len(`{"key":`):len(body)-len(rest)], &key); err != nil {
			return fmt.Errorf("key: %w", err)
		}
	}
	rest, hit := bytes.CutPrefix(rest, []byte(`,"cacheHit":true`))
	if rest, ok = bytes.CutPrefix(rest, []byte(`,"metrics":`)); !ok {
		return errors.New(`want ,"metrics": after key`)
	}
	metrics, ok := bytes.CutSuffix(rest, []byte("}"))
	if !ok || !isBareJSON(metrics) {
		return errors.New(`want a JSON value and } after "metrics":, no whitespace`)
	}
	*r = JobResult{Key: key, CacheHit: hit, Metrics: metrics}
	return nil
}

// JobSpec describes one routing job. Preset and CircuitJSON select the
// circuit (exactly one must be set); the remaining fields mirror the
// shared runcfg.Run knobs, with zero values meaning the daemon's
// configured defaults.
type JobSpec struct {
	// Preset names a benchmark circuit ("primary2", …, plus the
	// test-scale "small" and "tiny").
	Preset string `json:"preset,omitempty"`
	// CircuitJSON is an inline gensc circuit, for jobs routing a design
	// the daemon has never seen.
	CircuitJSON json.RawMessage `json:"circuit,omitempty"`
	// GenSeed is the preset generation seed (default: the daemon's).
	GenSeed uint64 `json:"genSeed,omitempty"`

	Algo     string `json:"algo,omitempty"`     // serial | rowwise | netwise | hybrid
	Procs    int    `json:"procs,omitempty"`    // default 1
	Seed     uint64 `json:"seed,omitempty"`     // routing seed, default 1
	Engine   string `json:"engine,omitempty"`   // virtual | inproc | tcp
	Platform string `json:"platform,omitempty"` // smp | dmp
	NetPart  string `json:"netpart,omitempty"`  // center | locus | density | pinweight

	// Priority orders the admission queue: higher runs sooner; equal
	// priorities run in submission order.
	Priority int `json:"priority,omitempty"`
	// TimeoutMS bounds the job's routing time (0: the daemon's default).
	TimeoutMS int64 `json:"timeoutMs,omitempty"`
}

// JobResult is the deterministic outcome of a job. Metrics holds the
// canonical result JSON (wall-clock fields zeroed — see
// CanonicalResult), so two runs of the same job produce byte-identical
// bodies and a cache hit is indistinguishable from a fresh computation
// except for the CacheHit flag.
type JobResult struct {
	// Key is the cache identity the job resolved to:
	// circuit|algo|procs|seed.
	Key string `json:"key"`
	// CacheHit marks a result served from the cache.
	CacheHit bool `json:"cacheHit,omitempty"`
	// Metrics is the canonical metrics.Result JSON. Encode embeds it
	// verbatim, so it must be compact JSON as CanonicalResult writes it
	// (or nil, written as null).
	Metrics json.RawMessage `json:"metrics"`
}

// Progress is one pipeline stage-boundary event, streamed over SSE while
// a job runs. WallNS is only set on "end" events and is a measurement,
// not part of the deterministic result.
type Progress struct {
	Key   string `json:"key"`
	Stage string `json:"stage"`
	Event string `json:"event"` // "start" | "end"
	// WallNS is the stage wall time on "end" events; parallel jobs
	// interleave events from all ranks on one stream.
	WallNS int64  `json:"wallNs,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Stats is the daemon's counter snapshot.
type Stats struct {
	Submitted         int64 `json:"submitted"`
	Completed         int64 `json:"completed"`
	Failed            int64 `json:"failed"`
	Cancelled         int64 `json:"cancelled"`
	CacheHits         int64 `json:"cacheHits"`
	CacheMisses       int64 `json:"cacheMisses"`
	Coalesced         int64 `json:"coalesced"` // joined an identical in-flight job
	RejectedOverload  int64 `json:"rejectedOverload"`
	RejectedDraining  int64 `json:"rejectedDraining"`
	RejectedInvalid   int64 `json:"rejectedInvalid"`
	QueueDepth        int64 `json:"queueDepth"`
	Running           int64 `json:"running"`
	CacheEntries      int64 `json:"cacheEntries"`
	CacheEvictions    int64 `json:"cacheEvictions"`
	ProgressDelivered int64 `json:"progressDelivered"`
	ProgressDropped   int64 `json:"progressDropped"`
}

// WireError is the error body of a rejected or failed request.
type WireError struct {
	Code    string `json:"code"` // "overloaded" | "draining" | "invalid" | "cancelled" | "internal"
	Message string `json:"message"`
}

// Error codes carried by WireError.
const (
	CodeOverloaded = "overloaded"
	CodeDraining   = "draining"
	CodeInvalid    = "invalid"
	CodeCancelled  = "cancelled"
	CodeInternal   = "internal"
)
