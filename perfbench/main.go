// Command perfbench is the repository benchmark. It runs one named
// workload against the router's public packages for a fixed time, checks
// every op's output against a reference it computed itself, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics of a
// traced run) as one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// NOTES.md in this directory says why each workload and metric exists.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one benchmark input set. setup builds the inputs and the
// reference digests from the workload seed; measure and traced run ops
// in whole rounds until the given duration has passed.
type workload interface {
	setup(ctx context.Context) error
	refs() refSet
	measure(ctx context.Context, d time.Duration) (*report, error)
	traced(ctx context.Context, d time.Duration, t *tracer) (*report, error)
}

// workloads are the production configurations, by name.
var workloads = map[string]func(seed uint64) workload{
	"route.synth-100k": func(seed uint64) workload {
		return &routeWL{seed: seed, preset: "synth.100k", opSeeds: 2}
	},
	"mesh.netwise-tcp": func(seed uint64) workload {
		return &meshWL{seed: seed, preset: "avq.large", opSeeds: 4}
	},
	"twgrd.mixed": func(seed uint64) workload {
		return &twgrdWL{seed: seed, presets: []string{"primary2", "biomed"}, inline: "primary2", coldPerCombo: 3}
	},
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the digests of every repetition must agree.
const setupReps = 3

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed: every input derives from it")
	seconds := flag.Int("seconds", 25, "how long one run measures")
	trace := flag.Int("trace", 0, "1: a traced run reporting the per-layer metrics")
	commit := flag.String("commit", "unknown", "source revision, recorded with the host facts")
	traces := flag.String("traces", ".bench_build/traces", "directory for the span trace of a traced run")
	flag.Parse()

	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of route.synth-100k, mesh.netwise-tcp, twgrd.mixed), -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	host, err := json.Marshal(map[string]any{"host": map[string]any{
		"workload": *name, "seed": *seed, "trace": *trace, "commit": *commit,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": cpuModel(),
	}})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(host))

	// A run must end well inside 180 s; a wedged transport is cancelled
	// rather than waited for.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*seconds)*time.Second+120*time.Second)
	defer cancel()
	var t *tracer
	if *trace == 1 {
		t = newTracer()
	}
	res, err := run(ctx, mk(*seed), time.Duration(*seconds)*time.Second, t)
	if err == nil && t != nil {
		err = os.MkdirAll(*traces, 0o755)
		if err == nil {
			err = t.write(filepath.Join(*traces, fmt.Sprintf("%s-seed%d.json", *name, *seed)), *name, *seed)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets w up setupReps times, then measures it for d (traced when t
// is non-nil) and assembles the metrics.
func run(ctx context.Context, w workload, d time.Duration, t *tracer) (*result, error) {
	var setupS []float64
	var first refSet
	for i := 0; i < setupReps; i++ {
		start := now()
		if err := w.setup(ctx); err != nil {
			return nil, err
		}
		setupS = append(setupS, msSince(start)/1e3)
		if i == 0 {
			first = w.refs()
		} else if !maps.Equal(first, w.refs()) {
			return nil, fmt.Errorf("perfbench: set-up %d computed other references than set-up 1", i+1)
		}
	}
	var rep *report
	var err error
	if t != nil {
		rep, err = w.traced(ctx, d, t)
	} else {
		rep, err = w.measure(ctx, d)
	}
	if err != nil {
		return nil, err
	}
	res := &result{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	if t != nil {
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{rep.layer[m.name], m.unit}
		}
		for name := range rep.layer {
			if _, ok := res.Metrics[name]; !ok {
				return nil, fmt.Errorf("perfbench: traced run produced undeclared metric %q", name)
			}
		}
		return res, nil
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	values := map[string]float64{
		"setup_s":     median(setupS),
		"op_ms_p50":   median(rep.opMS),
		"op_ms_p95":   percentile(rep.opMS, 0.95),
		"ops_per_s":   0,
		"ok_frac":     ratio(rep.attempted-rep.failed, rep.attempted),
		"peak_rss_mb": rss,
		"tracks":      mean(rep.tracks),
		"area":        mean(rep.area),
	}
	if rep.busy > 0 {
		values["ops_per_s"] = float64(len(rep.opMS)) / rep.busy.Seconds()
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metricValue{values[m.name], m.unit}
	}
	return res, nil
}

type metricDef struct{ name, unit string }

// endToEnd and perLayer mirror BENCHMARK.json; the smoke test holds them
// equal.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p95", "ms"},
	{"ops_per_s", "1/s"},
	{"ok_frac", "ratio"},
	{"peak_rss_mb", "MiB"},
	{"tracks", "tracks"},
	{"area", "layout_units"},
}

// perLayer lists every per-layer metric. A traced run reports all of
// them; a metric of a layer the workload's path does not reach reads 0.
var perLayer = []metricDef{
	// Every workload: the traced run's own op time and quality.
	{"trace.op_ms_p50", "ms"},
	{"trace.tracks", "tracks"},
	{"trace.area", "layout_units"},

	// route.synth-100k
	{"circuit.clone_ms", "ms"},
	{"route.steiner_ms", "ms"},
	{"route.coarse_ms", "ms"},
	{"route.ft_insert_ms", "ms"},
	{"route.ft_assign_ms", "ms"},
	{"route.connect_ms", "ms"},
	{"route.switch_opt_ms", "ms"},
	{"metrics.result_ms", "ms"},
	{"metrics.channel_densities_ms", "ms"},
	{"route.span_coverage", "ratio"},
	{"circuit.clone_alloc_mb", "MiB"},
	{"route.steiner_alloc_mb", "MiB"},
	{"route.coarse_alloc_mb", "MiB"},
	{"route.ft_insert_alloc_mb", "MiB"},
	{"route.ft_assign_alloc_mb", "MiB"},
	{"route.connect_alloc_mb", "MiB"},
	{"route.switch_opt_alloc_mb", "MiB"},
	{"metrics.result_alloc_mb", "MiB"},
	{"route.gc_cycles", "count"},
	{"workpool.speedup.steiner", "x"},
	{"workpool.speedup.ft_assign", "x"},
	{"workpool.speedup.connect", "x"},
	{"route.segments", "count"},
	{"route.coarse_flips", "count"},
	{"route.inserted_fts", "count"},
	{"route.extra_fts", "count"},
	{"route.wires", "count"},
	{"route.forced_edges", "count"},
	{"route.switch_flips", "count"},
	{"route.coarse_flip_frac", "ratio"},
	{"route.switch_flip_frac", "ratio"},

	// mesh.netwise-tcp
	{"partition.row_blocks_ms", "ms"},
	{"partition.nets_ms", "ms"},
	{"parallel.steiner_ms", "ms"},
	{"parallel.coarse_ms", "ms"},
	{"parallel.ft_insert_ms", "ms"},
	{"parallel.ft_assign_ms", "ms"},
	{"parallel.connect_ms", "ms"},
	{"parallel.stitch_ms", "ms"},
	{"parallel.switch_opt_ms", "ms"},
	{"parallel.outside_stages_ms", "ms"},
	{"mp.tcp_overhead_ms", "ms"},
	{"mp.allreduce_grid_ms.tcp", "ms"},
	{"mp.allreduce_grid_ms.inproc", "ms"},
	{"mp.engine_start_ms.tcp", "ms"},
	{"mesh.baseline_ms", "ms"},
	{"mesh.speedup", "x"},
	{"mesh.scaled_tracks", "ratio"},

	// twgrd.mixed
	{"service.envelope_encode_ms", "ms"},
	{"service.envelope_decode_ms", "ms"},
	{"runcfg.load_preset_ms", "ms"},
	{"circuit.read_json_ms", "ms"},
	{"service.canonical_ms", "ms"},
	{"service.route_ms", "ms"},
	{"service.http_ms_p50", "ms"},
	{"service.wait_ms_p95", "ms"},
	{"service.hit_ms_p50", "ms"},
	{"service.jobs_computed", "count"},
	{"service.cache_hits", "count"},
	{"service.coalesced", "count"},
	{"service.rejected", "count"},
	{"service.hit_frac", "ratio"},
}
