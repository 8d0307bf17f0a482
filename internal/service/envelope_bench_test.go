package service

import (
	"bytes"
	"context"
	"testing"

	"parroute/internal/metrics"
	"parroute/internal/parallel"
	"parroute/internal/runcfg"
)

// routePreset routes a preset serially the way the daemon would.
func routePreset(b *testing.B, preset string) *metrics.Result {
	b.Helper()
	c, err := runcfg.LoadPreset(preset, 7)
	if err != nil {
		b.Fatalf("LoadPreset(%s): %v", preset, err)
	}
	run := runcfg.Default()
	opts, err := run.Options()
	if err != nil {
		b.Fatalf("Options: %v", err)
	}
	res, err := parallel.RunBaseline(context.Background(), c, opts)
	if err != nil {
		b.Fatalf("route %s: %v", preset, err)
	}
	return res
}

// BenchmarkEnvelope prices the daemon's wire path per envelope: the
// primary2 job.result a client receives, an inline-circuit job.submit
// (the primary2 circuit as gensc JSON), and the canonical-result
// serialization that feeds the cache. Run with -benchmem; the figures
// are recorded in DESIGN.md §13.
func BenchmarkEnvelope(b *testing.B) {
	res := routePreset(b, "primary2")
	canon, err := CanonicalResult(res)
	if err != nil {
		b.Fatal(err)
	}
	c, err := runcfg.LoadPreset("primary2", 7)
	if err != nil {
		b.Fatal(err)
	}
	var inline bytes.Buffer
	if err := c.WriteJSON(&inline); err != nil {
		b.Fatal(err)
	}

	cases := []struct {
		name string
		kind string
		body any
		into func() any
	}{
		{"result", KindResult, &JobResult{Key: "preset:primary2@7|serial|p1|s1|pinweight", Metrics: canon}, func() any { return &JobResult{} }},
		{"submit-inline", KindJob, JobSpec{CircuitJSON: inline.Bytes(), Algo: "hybrid", Procs: 2}, func() any { return &JobSpec{} }},
	}
	for _, tc := range cases {
		data, err := Encode(tc.kind, tc.body)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("encode/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := Encode(tc.kind, tc.body); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				env, err := Decode(data)
				if err != nil {
					b.Fatal(err)
				}
				if err := env.DecodeBody(tc.kind, tc.into()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("canonical/primary2", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(canon)))
		for i := 0; i < b.N; i++ {
			if _, err := CanonicalResult(res); err != nil {
				b.Fatal(err)
			}
		}
	})
}
