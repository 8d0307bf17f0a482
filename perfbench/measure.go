package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"parroute/internal/metrics"
	"parroute/internal/runcfg"
	"parroute/internal/service"
)

// now is the benchmark's only clock read; every timing it reports is a
// difference of two readings.
func now() time.Time {
	return time.Now() //lint:allow nondeterminism benchmark stopwatch; readings only feed reported timings
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func msSince(t time.Time) float64 { return msOf(now().Sub(t)) }

// median is the middle of xs (the mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile of xs; 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// genSeed generates every circuit, whatever the workload seed: circuits
// of one preset differ by several percent in size from one generation
// seed to the next, which would show as spread between runs on other
// seeds. The workload seed varies the routing seeds and the job mix.
var genSeed = runcfg.DefaultCircuit().GenSeed

// digest identifies one routing output: the SHA-256 of its canonical
// result bytes (service.CanonicalResult, the form twgrd serves).
type digest [sha256.Size]byte

func (d digest) String() string { return hex.EncodeToString(d[:6]) }

// digestOf hashes the canonical form of res. CanonicalResult zeroes the
// wall-clock fields of res, so read anything else from it first.
func digestOf(res *metrics.Result) (digest, error) {
	b, err := service.CanonicalResult(res)
	if err != nil {
		return digest{}, fmt.Errorf("perfbench: %w", err)
	}
	return sha256.Sum256(b), nil
}

// refSet maps an op key to the digest the benchmark computed for it
// during set-up, through a path other than the op's own.
type refSet map[string]digest

func (r refSet) check(key string, got digest) error {
	want, ok := r[key]
	if !ok {
		return fmt.Errorf("perfbench: no reference for op %s", key)
	}
	if got != want {
		return fmt.Errorf("perfbench: op %s: output %s differs from reference %s", key, got, want)
	}
	return nil
}

// report is what one measured or traced run of a workload yields.
type report struct {
	attempted, failed int
	// opMS holds the wall time of every completed op.
	opMS []float64
	// busy is the wall time ops_per_s divides by.
	busy time.Duration
	// tracks and area hold each completed op's routing quality.
	tracks, area []float64
	// layer holds the per-layer metrics of a traced run.
	layer map[string]float64
}

// fail counts one failed op and logs why; the first few reasons are
// enough to diagnose a mismatch.
func (r *report) fail(err error) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
	}
}

func (r *report) done(ms float64, res *metrics.Result) {
	r.opMS = append(r.opMS, ms)
	r.tracks = append(r.tracks, float64(res.TotalTracks))
	r.area = append(r.area, float64(res.Area))
}

// span is one timed call into a layer. Parent is the ID of the enclosing
// span (0 at the top level); Op groups the spans of one op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	// AllocBytes and GCCycles are runtime.MemStats deltas over the span,
	// recorded only when the tracer reads memory statistics.
	AllocBytes uint64 `json:"allocBytes,omitempty"`
	GCCycles   uint32 `json:"gcCycles,omitempty"`

	alloc0 uint64
	gc0    uint32
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps the spans of a traced run in memory until write. A nil
// *tracer records nothing: untraced runs share the traced code paths.
type tracer struct {
	t0 time.Time
	// mem makes every span read runtime.MemStats at both ends.
	mem bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	s := span{Parent: parent, Op: op, Name: name}
	if t.mem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.alloc0, s.gc0 = ms.TotalAlloc, ms.NumGC
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	s.Start = now().Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, s)
	return s.ID
}

// end closes span id and returns it.
func (t *tracer) end(id int) span {
	if t == nil {
		return span{}
	}
	stop := now().Sub(t.t0).Nanoseconds()
	var ms runtime.MemStats
	if t.mem {
		runtime.ReadMemStats(&ms)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = stop
	if t.mem {
		s.AllocBytes, s.GCCycles = ms.TotalAlloc-s.alloc0, ms.NumGC-s.gc0
	}
	return *s
}

// call runs fn inside a span and returns the closed span.
func (t *tracer) call(op, parent int, name string, fn func() error) (span, error) {
	id := t.begin(op, parent, name)
	err := fn()
	return t.end(id), err
}

// closed returns a copy of the spans recorded so far.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON.
func (t *tracer) write(path, workload string, seed uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return fmt.Errorf("perfbench: encoding trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("perfbench: writing trace: %w", err)
	}
	return nil
}

// samples gathers per-op values of named per-layer quantities.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// peakRSSMiB reads this process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("perfbench: reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("perfbench: parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("perfbench: /proc/self/status has no VmHWM")
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
