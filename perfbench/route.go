package main

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"parroute/internal/circuit"
	"parroute/internal/metrics"
	"parroute/internal/rng"
	"parroute/internal/route"
	"parroute/internal/runcfg"
)

// routeWorkers is the intra-rank worker count of a route.synth-100k op:
// one per CPU of the two-CPU reference host, so the workpool fan-out is
// on the measured path.
const routeWorkers = 2

// routeWL is route.synth-100k: one op is route.Route on a generated
// scale circuit, serial TWGR with Workers: routeWorkers.
type routeWL struct {
	seed    uint64
	preset  string
	opSeeds int // distinct routing seeds, one op each per round

	c     *circuit.Circuit
	seeds []uint64
	ref   refSet
}

// drawSeeds derives n distinct positive routing seeds.
func drawSeeds(r *rng.RNG, n int) []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for len(out) < n {
		s := uint64(r.Intn(1<<30)) + 1
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func (w *routeWL) setup(ctx context.Context) error {
	r := rng.New(w.seed)
	c, err := runcfg.LoadPreset(w.preset, genSeed)
	if err != nil {
		return fmt.Errorf("perfbench: generating %s: %w", w.preset, err)
	}
	w.c, w.seeds, w.ref = c, drawSeeds(r, w.opSeeds), refSet{}
	// The reference routes on one worker: the pooled stages promise the
	// same bytes at every worker count.
	for _, s := range w.seeds {
		res, err := route.Route(ctx, c, route.Options{Seed: s, Workers: 1})
		if err != nil {
			return fmt.Errorf("perfbench: reference route: %w", err)
		}
		if w.ref[opKey(s)], err = digestOf(res); err != nil {
			return err
		}
	}
	return nil
}

func opKey(seed uint64) string { return "seed=" + strconv.FormatUint(seed, 10) }

func (w *routeWL) refs() refSet { return w.ref }

func (w *routeWL) measure(ctx context.Context, d time.Duration) (*report, error) {
	rep := &report{}
	deadline := now().Add(d)
	for more := true; more; more = now().Before(deadline) {
		for _, s := range w.seeds {
			rep.attempted++
			start := now()
			res, err := route.Route(ctx, w.c, route.Options{Seed: s, Workers: routeWorkers})
			el := now().Sub(start)
			if err != nil {
				rep.fail(err)
				continue
			}
			rep.busy += el
			rep.done(msOf(el), res)
			if err := w.check(s, res); err != nil {
				rep.fail(err)
			}
		}
	}
	return rep, nil
}

func (w *routeWL) check(seed uint64, res *metrics.Result) error {
	dg, err := digestOf(res)
	if err != nil {
		return err
	}
	return w.ref.check(opKey(seed), dg)
}

// routeSpans are the spans whose sum must cover the op: the clone, the
// six TWGR stages and Finalize. They are leaves, so their durations are
// their self times.
var routeSpans = []string{"circuit.clone", "route.steiner", "route.coarse", "route.ft_insert", "route.ft_assign", "route.connect", "route.switch_opt", "metrics.result"}

// routeOp is one traced op: the sequence of public calls Router.Run
// executes, each in its own span under one op span.
type routeOp struct {
	res   *metrics.Result
	rt    *route.Router
	spans map[string]span
	root  span
}

func (w *routeWL) tracedOp(ctx context.Context, t *tracer, op int, seed uint64, workers int) (*routeOp, error) {
	o := &routeOp{spans: map[string]span{}}
	root := t.begin(op, 0, "route.op")
	var c *circuit.Circuit
	steps := []struct {
		name string
		fn   func() error
	}{
		{"circuit.clone", func() error { c = w.c.Clone(); return nil }},
		{"route.new_router", func() error { o.rt = route.NewRouter(c, route.Options{Seed: seed, Workers: workers}); return nil }},
		{"route.steiner", func() error { return o.rt.BuildTrees(ctx) }},
		{"route.coarse", func() error { o.rt.CoarseRoute(); return nil }},
		{"route.ft_insert", func() error { o.rt.InsertFeedthroughs(); return nil }},
		{"route.ft_assign", func() error { return o.rt.AssignFeedthroughs(ctx) }},
		{"route.connect", func() error { return o.rt.ConnectNets(ctx) }},
		{"route.switch_opt", func() error { o.rt.OptimizeSwitchable(); return nil }},
		{"metrics.result", func() error { o.res = o.rt.Result("twgr-serial", 1, 0); return nil }},
	}
	for _, st := range steps {
		sp, err := t.call(op, root, st.name, st.fn)
		if err != nil {
			t.end(root)
			return nil, fmt.Errorf("perfbench: %s: %w", st.name, err)
		}
		o.spans[st.name] = sp
	}
	o.root = t.end(root)
	return o, nil
}

func (w *routeWL) traced(ctx context.Context, d time.Duration, t *tracer) (*report, error) {
	t.mem = true // per-stage allocation and GC counts
	rep := &report{layer: map[string]float64{}}
	per := samples{}
	op := 0
	deadline := now().Add(d)
	for more := true; more; more = now().Before(deadline) {
		for _, s := range w.seeds {
			op++
			rep.attempted++
			o, err := w.tracedOp(ctx, t, op, s, routeWorkers)
			if err != nil {
				rep.fail(err)
				continue
			}
			rt, res := o.rt, o.res
			per.add("gc", float64(o.root.GCCycles))
			covered := 0.0
			for _, name := range routeSpans {
				sp := o.spans[name]
				covered += sp.ms()
				per.add(name+"_ms", sp.ms())
				per.add(name+"_alloc_mb", float64(sp.AllocBytes)/(1<<20))
			}
			per.add("coverage", covered/o.root.ms())
			per.add("route.segments", float64(len(rt.Segs)))
			per.add("route.coarse_flips", float64(rt.CoarseFlips))
			per.add("route.inserted_fts", float64(rt.InsertedFts))
			per.add("route.extra_fts", float64(rt.ExtraFts))
			per.add("route.wires", float64(len(rt.Wires)))
			per.add("route.forced_edges", float64(rt.ForcedEdges))
			per.add("route.switch_flips", float64(rt.SwitchFlips))
			per.add("route.coarse_flip_frac", ratio(rt.CoarseFlips, len(rt.Segs)))
			per.add("route.switch_flip_frac", ratio(rt.SwitchFlips, res.SwitchableWires))
			sp, _ := t.call(op, 0, "metrics.channel_densities", func() error {
				metrics.ChannelDensities(rt.C.NumChannels(), rt.Wires)
				return nil
			})
			per.add("metrics.channel_densities_ms", sp.ms())

			rep.busy += time.Duration(o.root.End - o.root.Start)
			rep.done(o.root.ms(), res)
			if err := rt.Verify(); err != nil {
				rep.fail(err)
			}
			if err := w.check(s, res); err != nil {
				rep.fail(err)
			}
		}
	}

	// One more round on a single worker prices the workpool fan-out: the
	// speed-up of each pooled stage is its self time on one worker over
	// its self time on routeWorkers.
	one := samples{}
	for _, s := range w.seeds {
		op++
		rep.attempted++
		o, err := w.tracedOp(ctx, t, op, s, 1)
		if err != nil {
			rep.fail(err)
			continue
		}
		for _, name := range []string{"route.steiner", "route.ft_assign", "route.connect"} {
			one.add(name, o.spans[name].ms())
		}
		if err := w.check(s, o.res); err != nil {
			rep.fail(err)
		}
	}

	L := rep.layer
	for _, name := range routeSpans {
		L[name+"_ms"] = median(per[name+"_ms"])
		L[name+"_alloc_mb"] = median(per[name+"_alloc_mb"])
	}
	L["metrics.channel_densities_ms"] = median(per["metrics.channel_densities_ms"])
	L["route.span_coverage"] = median(per["coverage"])
	L["route.gc_cycles"] = mean(per["gc"])
	for _, name := range []string{"route.segments", "route.coarse_flips", "route.inserted_fts", "route.extra_fts", "route.wires", "route.forced_edges", "route.switch_flips", "route.coarse_flip_frac", "route.switch_flip_frac"} {
		L[name] = mean(per[name])
	}
	for _, stage := range []string{"steiner", "ft_assign", "connect"} {
		if pooled := median(per["route."+stage+"_ms"]); pooled > 0 {
			L["workpool.speedup."+stage] = median(one["route."+stage]) / pooled
		}
	}
	L["trace.op_ms_p50"] = median(rep.opMS)
	L["trace.tracks"] = mean(rep.tracks)
	L["trace.area"] = mean(rep.area)
	return rep, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
