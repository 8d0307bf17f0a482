package service

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"runtime/debug"
	"strings"
	"testing"

	"parroute/internal/geom"
	"parroute/internal/metrics"
)

// TestEnvelopeRoundTrip encodes and decodes a representative body for
// every envelope kind and checks the payload survives unchanged.
func TestEnvelopeRoundTrip(t *testing.T) {
	cases := []struct {
		kind string
		body any
		into func() any
	}{
		{KindJob, JobSpec{Preset: "tiny", Algo: "hybrid", Procs: 4, Seed: 9, Priority: 2, TimeoutMS: 1500}, func() any { return &JobSpec{} }},
		{KindJob, JobSpec{CircuitJSON: json.RawMessage(`{"rows":2}`), Algo: "serial", Procs: 1, Seed: 1}, func() any { return &JobSpec{} }},
		{KindResult, JobResult{Key: "preset:tiny@7|serial|p1|s1|pinweight", CacheHit: true, Metrics: json.RawMessage(`{"final":{"len":12}}`)}, func() any { return &JobResult{} }},
		{KindProgress, Progress{Key: "k", Stage: "coarse", Event: "end", WallNS: 123, Error: "boom"}, func() any { return &Progress{} }},
		{KindStats, Stats{Submitted: 10, Completed: 7, Cancelled: 2, CacheHits: 3, QueueDepth: 1, ProgressDropped: 4}, func() any { return &Stats{} }},
		{KindError, WireError{Code: CodeOverloaded, Message: "queue full"}, func() any { return &WireError{} }},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			data, err := Encode(tc.kind, tc.body)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			// Trailing whitespace is allowed: writeEnvelope ends the
			// envelope with a newline.
			for _, tail := range []string{"\n", " \t\r\n"} {
				if _, err := Decode(append(append([]byte(nil), data...), tail...)); err != nil {
					t.Fatalf("Decode with trailing %q: %v", tail, err)
				}
			}
			env, err := Decode(data)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if env.Proto != Proto {
				t.Fatalf("proto = %q, want %q", env.Proto, Proto)
			}
			got := tc.into()
			if err := env.DecodeBody(tc.kind, got); err != nil {
				t.Fatalf("DecodeBody: %v", err)
			}
			want := reflect.New(reflect.TypeOf(tc.body))
			want.Elem().Set(reflect.ValueOf(tc.body))
			if !reflect.DeepEqual(got, want.Interface()) {
				t.Fatalf("round trip changed the body:\n got %+v\nwant %+v", got, tc.body)
			}
		})
	}
}

// TestEnvelopeRejects pins the failure modes Decode must tell apart:
// malformed JSON, version skew, unknown kinds, and checksum mismatches.
func TestEnvelopeRejects(t *testing.T) {
	good, err := Encode(KindJob, JobSpec{Preset: "tiny"})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}

	cases := []struct {
		name    string
		mutate  func() []byte
		wantSub string
	}{
		{"malformed-json", func() []byte { return []byte(`{"proto": "twgrd/1", "kind":`) }, "malformed envelope"},
		{"empty", func() []byte { return nil }, "malformed envelope"},
		{"version-skew-older", func() []byte { return reencode(t, good, func(e *Envelope) { e.Proto = "twgrd/0" }) }, "version skew"},
		{"version-skew-newer", func() []byte { return reencode(t, good, func(e *Envelope) { e.Proto = "twgrd/2" }) }, "version skew"},
		{"version-missing", func() []byte { return reencode(t, good, func(e *Envelope) { e.Proto = "" }) }, "version skew"},
		{"unknown-kind", func() []byte { return reencode(t, good, func(e *Envelope) { e.Kind = "job.steal" }) }, "unknown envelope kind"},
		{"tampered-body", func() []byte {
			return reencode(t, good, func(e *Envelope) { e.Body = json.RawMessage(`{"preset":"primary2"}`) })
		}, "checksum mismatch"},
		{"tampered-sum", func() []byte { return reencode(t, good, func(e *Envelope) { e.Sum = "0000000000000000" }) }, "checksum mismatch"},
		// Decode reads only the layout Encode writes.
		{"reordered-members", func() []byte {
			return []byte(`{"kind":"job.submit","proto":"twgrd/1","body":{"preset":"tiny"},"sum":"` + checksum(Proto, KindJob, []byte(`{"preset":"tiny"}`)) + `"}`)
		}, "malformed envelope"},
		{"whitespace-inside", func() []byte {
			return []byte(`{"proto": "twgrd/1", "kind": "job.submit", "body": {"preset":"tiny"}, "sum": "` + checksum(Proto, KindJob, []byte(`{"preset":"tiny"}`)) + `"}`)
		}, "malformed envelope"},
		{"leading-whitespace", func() []byte { return append([]byte(" "), good...) }, "malformed envelope"},
		{"extra-member", func() []byte {
			return bytes.Replace(good, []byte(`,"sum":`), []byte(`,"x":1,"sum":`), 1)
		}, "malformed envelope"},
		{"body-not-json", func() []byte { return jobEnvelope(`{"preset":`) }, "malformed envelope"},
		{"body-two-values", func() []byte { return jobEnvelope(`{} {}`) }, "malformed envelope"},
		{"body-empty", func() []byte { return jobEnvelope(``) }, "malformed envelope"},
		{"body-leading-whitespace", func() []byte { return jobEnvelope(` {"preset":"tiny"}`) }, "malformed envelope"},
		{"body-trailing-whitespace", func() []byte { return jobEnvelope("{\"preset\":\"tiny\"}\n") }, "malformed envelope"},
		{"truncated", func() []byte { return good[:len(good)-1] }, "malformed envelope"},
		{"sum-member-missing", func() []byte {
			return bytes.Replace(good, []byte(`,"sum":"`), []byte(`abcdef01`), 1)
		}, "malformed envelope"},
		{"sum-not-hex", func() []byte { return append(good[:len(good)-3:len(good)-3], `X"}`...) }, "malformed envelope"},
		{"sum-uppercase", func() []byte {
			env := jobEnvelope(`{}`) // its checksum has hex letters to raise
			sum := env[len(env)-sumTail+len(`,"sum":"`) : len(env)-len(`"}`)]
			copy(sum, bytes.ToUpper(sum))
			return env
		}, "malformed envelope"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(tc.mutate())
			if err == nil {
				t.Fatal("Decode accepted a bad envelope")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// jobEnvelope writes body into a job.submit envelope in Encode's layout
// with a matching checksum, whether or not body is valid JSON.
func jobEnvelope(body string) []byte {
	return []byte(`{"proto":"twgrd/1","kind":"job.submit","body":` + body + `,"sum":"` + checksum(Proto, KindJob, []byte(body)) + `"}`)
}

// reencode decodes raw (structurally, without Verify), applies mutate,
// and re-serializes — keeping the original Sum unless mutate changes it,
// so kind/proto edits and body tampering both invalidate the checksum
// path they should.
func reencode(t *testing.T, raw []byte, mutate func(*Envelope)) []byte {
	t.Helper()
	var env Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	// Kind and proto are covered by the checksum; recompute it for edits
	// that the skew/kind checks (which run before Verify) must catch on
	// their own merits, not as checksum noise.
	old := env
	mutate(&env)
	if env.Proto != old.Proto || env.Kind != old.Kind {
		env.Sum = checksum(env.Proto, env.Kind, env.Body)
	}
	out, err := json.Marshal(&env)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return out
}

// TestDecodeBodyKindMismatch: a result envelope must not decode into a
// JobSpec just because the fields happen to overlap.
func TestDecodeBodyKindMismatch(t *testing.T) {
	data, err := Encode(KindResult, JobResult{Key: "k", Metrics: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	env, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	var spec JobSpec
	if err := env.DecodeBody(KindJob, &spec); err == nil {
		t.Fatal("DecodeBody accepted a job.result envelope as job.submit")
	}
}

// TestVerifyDetectsSplice: swapping the body of one valid envelope into
// another (same kind) fails Verify even though both parts are valid.
func TestVerifyDetectsSplice(t *testing.T) {
	a, err := Encode(KindJob, JobSpec{Preset: "tiny", Seed: 1})
	if err != nil {
		t.Fatalf("Encode a: %v", err)
	}
	b, err := Encode(KindJob, JobSpec{Preset: "small", Seed: 2})
	if err != nil {
		t.Fatalf("Encode b: %v", err)
	}
	var envA, envB Envelope
	if err := json.Unmarshal(a, &envA); err != nil {
		t.Fatalf("unmarshal a: %v", err)
	}
	if err := json.Unmarshal(b, &envB); err != nil {
		t.Fatalf("unmarshal b: %v", err)
	}
	envA.Body = envB.Body // splice: b's body under a's checksum
	if err := envA.Verify(); err == nil {
		t.Fatal("Verify accepted a spliced body")
	}
}

// TestREADMESubmitBodyDecodes pins the curl example in README.md: its
// hand-written body is exactly what Encode writes for the same spec, and
// Decode accepts it.
func TestREADMESubmitBodyDecodes(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`curl -s \S+/v1/jobs -d '([^']*)'`).FindSubmatch(readme)
	if m == nil {
		t.Fatal("README.md has no curl -d submit example")
	}
	body := m[1]
	if !bytes.Contains(body, []byte(`"sum":"d71764a70cdf1c93"}`)) {
		t.Fatalf("README body changed: %s", body)
	}
	env, err := Decode(body)
	if err != nil {
		t.Fatalf("Decode(README body): %v", err)
	}
	var spec JobSpec
	if err := env.DecodeBody(KindJob, &spec); err != nil {
		t.Fatalf("DecodeBody: %v", err)
	}
	want := JobSpec{Preset: "primary2", Algo: "hybrid", Procs: 4, Seed: 1}
	if !reflect.DeepEqual(spec, want) {
		t.Fatalf("README spec = %+v, want %+v", spec, want)
	}
	enc, err := Encode(KindJob, want)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !bytes.Equal(enc, body) {
		t.Fatalf("README body is not what Encode writes:\nREADME %s\nEncode %s", body, enc)
	}
}

// referenceEncode is the envelope encoder Encode replaced: marshal the
// body, then marshal an Envelope around it (which compacts the body a
// second time). Encode must match it byte for byte.
func referenceEncode(t *testing.T, kind string, body any) []byte {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("reference body: %v", err)
	}
	out, err := json.Marshal(&Envelope{Proto: Proto, Kind: kind, Body: raw, Sum: checksum(Proto, kind, raw)})
	if err != nil {
		t.Fatalf("reference envelope: %v", err)
	}
	return out
}

// htmlResult is a routing result whose names encoding/json must escape.
func htmlResult() *metrics.Result {
	return &metrics.Result{
		Circuit: `<c&d> "é中"`, Algo: "hybrid", Procs: 2,
		Wires:          []metrics.Wire{{Net: 1, Channel: 1, Span: geom.NewInterval(2, 5), Switchable: true, Row: 1, AX: 2, BX: 5, BRow: 1}},
		ChannelDensity: []int{0, 1}, TotalTracks: 1, Area: 10,
		Phases:   []metrics.Phase{{Name: "a<b", Counters: []metrics.Counter{{Name: "x&y", Value: 3}}}},
		Degraded: true,
	}
}

// TestEncodeMatchesReference holds the single-pass Encode to the old
// two-marshal encoder over a body of every kind, HTML-unsafe keys and
// messages, real canonical metrics, and a JobResult with nil Metrics.
func TestEncodeMatchesReference(t *testing.T) {
	canon := freshOneShot(t, "tiny", 7, "serial", 1, 1, "pinweight")
	html, err := CanonicalResult(htmlResult())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		kind string
		body any
	}{
		{"job", KindJob, JobSpec{Preset: "tiny<&>", Algo: "hybrid", Procs: 4, Seed: 9, Priority: -2, TimeoutMS: 1500}},
		{"job-inline", KindJob, JobSpec{CircuitJSON: json.RawMessage("{ \"name\": \"a<b>&c\",\n \"rows\": [ 1, 2 ] }\n"), GenSeed: 3}},
		{"job-pointer", KindJob, &JobSpec{Preset: "small"}},
		{"result", KindResult, JobResult{Key: "preset:tiny@7|serial|p1|s1|pinweight", Metrics: canon}},
		{"result-pointer-hit", KindResult, &JobResult{Key: "k<&>\u2028\"", CacheHit: true, Metrics: html}},
		{"result-nil-metrics", KindResult, JobResult{Key: "k"}},
		{"result-nil-pointer", KindResult, (*JobResult)(nil)},
		{"progress", KindProgress, Progress{Key: "k", Stage: "coarse<1>", Event: "end", WallNS: 123, Error: "a & b"}},
		{"stats", KindStats, Stats{Submitted: 10, Completed: 7, Cancelled: 2, CacheHits: 3, QueueDepth: 1, ProgressDropped: 4}},
		{"error", KindError, WireError{Code: CodeInvalid, Message: "<script>alert('x')</script> & \x01 \xff"}},
		{"odd-kind", "a<b>\"c", WireError{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Encode(tc.kind, tc.body)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			if want := referenceEncode(t, tc.kind, tc.body); !bytes.Equal(got, want) {
				t.Fatalf("Encode differs from the reference encoder:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestEncodeAllocsConstant: encoding a result envelope allocates the
// same number of times whatever the wire count — the body is appended,
// not built value by value — and so do canonicalizing and decoding it.
// GC is off while measuring: a collection empties the sync.Pools behind
// encoding/json and fmt, and refilling them would count against the
// larger size, which collects more often.
func TestEncodeAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(wires int) (canon, enc, dec float64) {
		r := htmlResult()
		r.Wires = make([]metrics.Wire, wires)
		for i := range r.Wires {
			r.Wires[i] = metrics.Wire{Net: i, Channel: 1, Span: geom.NewInterval(i, i+3), AX: i, BX: i + 3}
		}
		b, _ := CanonicalResult(r)
		body := &JobResult{Key: "k", Metrics: b}
		data, err := Encode(KindResult, body)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		canon = testing.AllocsPerRun(20, func() { _, _ = CanonicalResult(r) })
		enc = testing.AllocsPerRun(20, func() { _, _ = Encode(KindResult, body) })
		dec = testing.AllocsPerRun(20, func() {
			var jr JobResult
			env, err := Decode(data)
			if err != nil || env.DecodeBody(KindResult, &jr) != nil {
				t.Fatal("decode failed")
			}
		})
		return canon, enc, dec
	}
	c1, e1, d1 := allocs(1000)
	c10, e10, d10 := allocs(10000)
	if c1 != c10 || e1 != e10 || d1 != d10 {
		t.Fatalf("allocations grow with wire count: canonical %v→%v, encode %v→%v, decode %v→%v", c1, c10, e1, e10, d1, d10)
	}
}

// TestDecodeResultLayout: a job.result body is read by layout. Every
// layout appendJSON writes round-trips with Metrics aliasing the body;
// any other layout is rejected, even when it is valid JSON a reflective
// decoder would accept.
func TestDecodeResultLayout(t *testing.T) {
	var bodies []json.RawMessage
	for _, jr := range []JobResult{
		{Key: "k", Metrics: json.RawMessage(`{"a":[1,2]}`)},
		{Key: "k<\\>", CacheHit: true, Metrics: json.RawMessage(`"s"`)},
		{Key: ""},
		{Key: "empty", Metrics: json.RawMessage{}}, // written as null, like nil
	} {
		data, err := Encode(KindResult, jr)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		env, err := Decode(data)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		bodies = append(bodies, env.Body)
	}
	// Raw invalid UTF-8 in a key is replaced, as encoding/json does.
	bodies = append(bodies, json.RawMessage("{\"key\":\"a\xffb\",\"metrics\":null}"))
	for _, body := range bodies {
		env := &Envelope{Proto: Proto, Kind: KindResult, Body: body}
		var got, want JobResult
		if err := env.DecodeBody(KindResult, &got); err != nil {
			t.Fatalf("DecodeBody(%s): %v", body, err)
		}
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("reference decode: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("layout decode = %+v, reflective decode = %+v", got, want)
		}
	}

	for _, body := range []string{
		`{"metrics":{},"key":"k"}`,
		`{"key":"k","metrics":{},"x":1}`,
		`{"key":"k","cacheHit":false,"metrics":{}}`,
		`{"key":"k", "metrics":{}}`,
		`{"key":"k","metrics":{}} `,
		`{"key":"k","metrics": 1}`,
		`{"key":"k","metrics":{} }`,
		"{\"key\":\"k\",\"metrics\":\t{}\r}",
		`{"key":"k","metrics":}`,
		`{"key":"k"}`,
		`[]`,
	} {
		env := &Envelope{Proto: Proto, Kind: KindResult, Body: json.RawMessage(body)}
		var jr JobResult
		if err := env.DecodeBody(KindResult, &jr); err == nil {
			t.Errorf("DecodeBody accepted result body %s as %+v", body, jr)
		}
	}
}

// FuzzDecode drives the daemon's trust boundary with arbitrary bytes:
// Decode and every DecodeBody must reject or accept without panicking,
// whatever Decode accepts verifies, carries a valid JSON body and reads
// the same as encoding/json reads it, and what the result layout read
// accepts matches encoding/json.
func FuzzDecode(f *testing.F) {
	for _, tc := range []struct {
		kind string
		body any
	}{
		{KindJob, JobSpec{Preset: "tiny", Algo: "hybrid", Procs: 4, CircuitJSON: json.RawMessage(`{"rows":2}`)}},
		{KindResult, JobResult{Key: "k<&>", CacheHit: true, Metrics: json.RawMessage(`{"wires":[{"net":1}],"channelDensity":null}`)}},
		{KindResult, JobResult{Key: "k"}},
		{KindProgress, Progress{Key: "k", Stage: "coarse", Event: "end", WallNS: 5}},
		{KindStats, Stats{Submitted: 1}},
		{KindError, WireError{Code: CodeInvalid, Message: "bad <input>"}},
	} {
		data, err := Encode(tc.kind, tc.body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"proto":"twgrd/1","kind":"job.submit","body":{"preset":"primary2","algo":"hybrid","procs":4,"seed":1},"sum":"d71764a70cdf1c93"}`))

	f.Add([]byte(`{"key":"k\u003c","cacheHit":true,"metrics":{"a":[1]}}`))
	f.Add([]byte(`{"key":"k","metrics": {"a":[1]} }`))
	f.Add(jobEnvelope(` {"preset":"tiny"} `))

	f.Fuzz(func(t *testing.T, data []byte) {
		// A mutated envelope almost never keeps a matching checksum, so the
		// input is also tried as a bare result body.
		checkResultLayout(t, data)
		env, err := Decode(data)
		if err != nil {
			return
		}
		if err := env.Verify(); err != nil {
			t.Fatalf("Decode accepted an envelope that fails Verify: %v", err)
		}
		if !json.Valid(env.Body) {
			t.Fatalf("Decode accepted a body that is not valid JSON: %q", env.Body)
		}
		var ref Envelope
		if err := json.Unmarshal(data, &ref); err != nil || !reflect.DeepEqual(*env, ref) {
			t.Fatalf("Decode read %+v, encoding/json reads %+v (%v)", *env, ref, err)
		}
		for kind, into := range map[string]any{
			KindJob: &JobSpec{}, KindResult: &JobResult{}, KindProgress: &Progress{},
			KindStats: &Stats{}, KindError: &WireError{},
		} {
			_ = env.DecodeBody(kind, into)
		}
		checkResultLayout(t, env.Body)
	})
}

// checkResultLayout: whatever the layout read of a result body accepts,
// encoding/json reads the same way.
func checkResultLayout(t *testing.T, body []byte) {
	var jr, ref JobResult
	if (&Envelope{Kind: KindResult, Body: body}).DecodeBody(KindResult, &jr) != nil {
		return
	}
	if err := json.Unmarshal(body, &ref); err != nil || !reflect.DeepEqual(jr, ref) {
		t.Fatalf("layout decode %+v disagrees with reflective decode %+v (%v)", jr, ref, err)
	}
}
