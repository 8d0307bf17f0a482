package metrics

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"parroute/internal/geom"
)

// referenceJSON is the reflective encoder WriteJSON used before
// AppendJSON: encoding/json over jsonResult. It is the oracle the
// hand-written encoder must match byte for byte.
func referenceJSON(t *testing.T, r *Result) []byte {
	t.Helper()
	jr := jsonResult{
		Circuit: r.Circuit, Algo: r.Algo, Procs: r.Procs,
		ChannelDensity: r.ChannelDensity, TotalTracks: r.TotalTracks,
		Area: r.Area, Wirelength: r.Wirelength,
		Feedthroughs: r.Feedthroughs, ForcedEdges: r.ForcedEdges,
		CoreWidth: r.CoreWidth, SwitchableWires: r.SwitchableWires,
		SwitchFlips: r.SwitchFlips, CoarseFlips: r.CoarseFlips,
		ElapsedNS: r.Elapsed.Nanoseconds(), Degraded: r.Degraded,
	}
	jr.Wires = make([]jsonWire, len(r.Wires))
	for i := range r.Wires {
		w := &r.Wires[i]
		jr.Wires[i] = jsonWire{
			Net: w.Net, Channel: w.Channel, Lo: w.Span.Lo, Hi: w.Span.Hi,
			Switchable: w.Switchable, Row: w.Row,
			AX: w.AX, ARow: w.ARow, BX: w.BX, BRow: w.BRow,
		}
	}
	for _, p := range r.Phases {
		jp := jsonPhase{Name: p.Name, ElapsedNS: p.Elapsed.Nanoseconds()}
		for _, c := range p.Counters {
			jp.Counters = append(jp.Counters, jsonCounter{Name: c.Name, Value: c.Value})
		}
		jr.Phases = append(jr.Phases, jp)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&jr); err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	return buf.Bytes()
}

// checkAppendJSON asserts WriteJSON and AppendJSON both reproduce the
// reference encoder's bytes, and returns them.
func checkAppendJSON(t *testing.T, r *Result) []byte {
	t.Helper()
	want := referenceJSON(t, r)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteJSON differs from encoding/json:\n got %s\nwant %s", buf.Bytes(), want)
	}
	prefix := []byte("prefix")
	got := r.AppendJSON(prefix)
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], bytes.TrimSuffix(want, []byte("\n"))) {
		t.Fatalf("AppendJSON differs from encoding/json:\n got %s\nwant %s", got, want)
	}
	return want
}

// TestAppendJSONMatchesGoldens: the hand-written encoder reproduces every
// committed golden result byte for byte, as the reflective encoder that
// wrote them did.
func TestAppendJSONMatchesGoldens(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "parallel", "testdata", "golden", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 20 {
		t.Fatalf("found %d golden results, want 20", len(paths))
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			r, err := ReadResultJSON(bytes.NewReader(golden))
			if err != nil {
				t.Fatalf("ReadResultJSON: %v", err)
			}
			if got := checkAppendJSON(t, r); !bytes.Equal(got, golden) {
				t.Fatal("re-encoded golden differs from the committed file")
			}
		})
	}
}

// TestAppendJSONEdgeCases covers what the goldens do not: phases with
// and without counters, Degraded, nil versus empty slices, negative and
// extreme integers, and names encoding/json must escape (HTML-unsafe
// characters, quotes, control characters, non-ASCII, invalid UTF-8).
func TestAppendJSONEdgeCases(t *testing.T) {
	full := &Result{
		Circuit: `a<b>&"c"\d` + "\n\t\b\f\x01 é 中    \xff", Algo: "hybrid", Procs: 4,
		Wires: []Wire{
			{Net: 1, Channel: 2, Span: geom.NewInterval(3, 9), Switchable: true, Row: 2, AX: 3, ARow: 2, BX: 9, BRow: 1},
			{Net: -1, Channel: 0, Span: geom.Interval{Lo: 1, Hi: 0}, Row: -3},
			{Net: 1 << 40, Span: geom.Interval{Lo: -1 << 62, Hi: 1<<63 - 1}},
		},
		ChannelDensity: nil, TotalTracks: 2, Area: -1 << 63, Wirelength: 7,
		Feedthroughs: 3, CoreWidth: 100, SwitchableWires: 1, SwitchFlips: 1, CoarseFlips: 2,
		Elapsed: 1234567,
		Phases: []Phase{
			{Name: "steiner", Elapsed: 111, Counters: []Counter{{Name: "trees<>&", Value: 9}, {Name: "ünïcode", Value: -2}}},
			{Name: "coarse & <fine>", Elapsed: -5},
			{Name: "one escape each", Counters: []Counter{
				{Name: "a<b"}, {Name: "a>b"}, {Name: "a&b"}, {Name: `a"b`}, {Name: `a\b`},
				{Name: "a\x1fb"}, {Name: "a\u00e9b"}, {Name: "a\u2028b"}, {Name: "a\xffb"}, {Name: "a\x7fb"},
			}},
		},
		Degraded: true,
	}
	checkAppendJSON(t, full)

	for name, r := range map[string]*Result{
		"zero":          {},
		"empty-slices":  {Wires: []Wire{}, ChannelDensity: []int{}, Phases: []Phase{}},
		"empty-counter": {Phases: []Phase{{Name: "x", Counters: []Counter{}}}},
		"density":       {ChannelDensity: []int{0, 3, -1}},
	} {
		t.Run(name, func(t *testing.T) { checkAppendJSON(t, r) })
	}
}
