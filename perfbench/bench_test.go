package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// smallWorkloads runs every workload's code path on the test-scale
// circuits, one round each.
func smallWorkloads() map[string]func() workload {
	return map[string]func() workload{
		"route.synth-100k": func() workload { return &routeWL{seed: 3, preset: "small", opSeeds: 2} },
		"mesh.netwise-tcp": func() workload { return &meshWL{seed: 3, preset: "small", opSeeds: 2} },
		"twgrd.mixed": func() workload {
			return &twgrdWL{seed: 3, presets: []string{"tiny", "small"}, inline: "tiny", coldPerCombo: 1}
		},
	}
}

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for name := range workloads {
		ours = append(ours, name)
	}
	sort.Strings(names)
	sort.Strings(ours)
	if len(names) != len(ours) {
		t.Fatalf("BENCHMARK.json names workloads %v, the benchmark runs %v", names, ours)
	}
	for i := range names {
		if names[i] != ours[i] {
			t.Fatalf("BENCHMARK.json names workloads %v, the benchmark runs %v", names, ours)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the benchmark %d and %d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bj.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	for i, m := range bj.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestWorkloadSmoke runs each workload, untraced and traced, and checks
// that every op passed and the emitted metrics are exactly the ones
// BENCHMARK.json declares, with its units.
func TestWorkloadSmoke(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bj.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for name, mk := range smallWorkloads() {
		for _, traced := range []bool{false, true} {
			var tr *tracer
			if traced {
				tr = newTracer()
			}
			res, err := run(context.Background(), mk(), 0, tr)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want[traced]) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", name, traced, len(res.Metrics), len(want[traced]))
			}
			for m, v := range res.Metrics {
				if unit, ok := want[traced][m]; !ok || unit != v.Unit {
					t.Errorf("%s traced=%v: metric %s [%s] is not declared so in BENCHMARK.json", name, traced, m, v.Unit)
				}
			}
			if !traced {
				for _, m := range []string{"setup_s", "op_ms_p50", "ops_per_s", "ok_frac", "peak_rss_mb", "tracks", "area"} {
					if res.Metrics[m].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, m, res.Metrics[m].Value)
					}
				}
			}
		}
	}
}

// TestCorruptReferenceFails corrupts one reference digest of each
// workload and expects the ops of that key to count as failed.
func TestCorruptReferenceFails(t *testing.T) {
	ctx := context.Background()
	for name, mk := range smallWorkloads() {
		w := mk()
		if err := w.setup(ctx); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		refs := w.refs()
		keys := make([]string, 0, len(refs))
		for k := range refs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		d := refs[keys[0]]
		d[0] ^= 0xff
		refs[keys[0]] = d
		rep, err := w.measure(ctx, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.failed == 0 {
			t.Errorf("%s: a corrupted reference for %s failed no op (attempted %d)", name, keys[0], rep.attempted)
		}
		if rep.failed == rep.attempted {
			t.Errorf("%s: every op failed; only the ops of %s should", name, keys[0])
		}
	}
}
