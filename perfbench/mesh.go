package main

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"parroute/internal/circuit"
	"parroute/internal/grid"
	"parroute/internal/metrics"
	"parroute/internal/mp"
	"parroute/internal/parallel"
	"parroute/internal/partition"
	"parroute/internal/rng"
	"parroute/internal/route"
	"parroute/internal/runcfg"
)

// meshProcs is the rank count of a mesh.netwise-tcp op: one per CPU of
// the two-CPU reference host.
const meshProcs = 2

// gridAllreduceTag carries the grid-sized allreduce the traced run times
// on its own. The name stays outside the tag* convention on purpose:
// mpgen would otherwise enter this package into mp_protocol.json, which
// describes the router's own protocol.
const gridAllreduceTag = 1

// meshWL is mesh.netwise-tcp: one op is parallel.Run with the net-wise
// algorithm on meshProcs ranks, each a goroutine, talking over loopback
// TCP.
type meshWL struct {
	seed    uint64
	preset  string
	opSeeds int

	c     *circuit.Circuit
	seeds []uint64
	ref   refSet
}

func (w *meshWL) opts(seed uint64, mode mp.Mode) parallel.Options {
	return parallel.Options{
		Algo:  parallel.NetWise,
		Procs: meshProcs,
		Mode:  mode,
		Route: route.Options{Seed: seed, Workers: 1},
	}
}

func (w *meshWL) setup(ctx context.Context) error {
	r := rng.New(w.seed)
	c, err := runcfg.LoadPreset(w.preset, genSeed)
	if err != nil {
		return fmt.Errorf("perfbench: generating %s: %w", w.preset, err)
	}
	w.c, w.seeds, w.ref = c, drawSeeds(r, w.opSeeds), refSet{}
	// The reference runs on the in-process engine: routing output is the
	// same on every engine, so only the transport differs from an op.
	for _, s := range w.seeds {
		res, err := parallel.Run(ctx, c, w.opts(s, mp.Inproc))
		if err != nil {
			return fmt.Errorf("perfbench: reference run: %w", err)
		}
		if w.ref[opKey(s)], err = digestOf(res); err != nil {
			return err
		}
	}
	return nil
}

func (w *meshWL) refs() refSet { return w.ref }

func (w *meshWL) check(seed uint64, res *metrics.Result) error {
	dg, err := digestOf(res)
	if err != nil {
		return err
	}
	return w.ref.check(opKey(seed), dg)
}

func (w *meshWL) measure(ctx context.Context, d time.Duration) (*report, error) {
	rep := &report{}
	deadline := now().Add(d)
	for more := true; more; more = now().Before(deadline) {
		for _, s := range w.seeds {
			rep.attempted++
			start := now()
			res, err := parallel.Run(ctx, w.c, w.opts(s, mp.TCP))
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

// meshStages are the phases of a net-wise run, as Result.Phases names
// them. The closing "gather" stage is missing: each rank reports its
// phases from inside it, so its time lands in parallel.outside_stages_ms.
var meshStages = []string{"steiner", "coarse", "ft-insert", "ft-assign", "connect", "stitch", "switch-opt"}

// meshTrace accumulates the per-op samples of a traced run.
type meshTrace struct {
	rep *report
	per samples // per-layer metric name → per-op values
	// inproc, baseTracks and tcpTracks feed the derived metrics.
	inproc, baseTracks, tcpTracks []float64
	gridLen                       int
}

func (w *meshWL) traced(ctx context.Context, d time.Duration, t *tracer) (*report, error) {
	mt := &meshTrace{
		rep: &report{layer: map[string]float64{}},
		per: samples{},
		// The grid allreduce ships one count per coarse-grid cell, the
		// length the net-wise ranks exchange at every synchronization.
		gridLen: len(grid.New(len(w.c.Rows), w.c.CoreWidth(), 16).DensCounts()),
	}
	rep := mt.rep
	op := 0
	deadline := now().Add(d)
	for more := true; more; more = now().Before(deadline) {
		for _, s := range w.seeds {
			op++
			rep.attempted++
			if err := w.tracedOp(ctx, t, op, s, mt); err != nil {
				rep.fail(err)
			}
		}
	}
	L := rep.layer
	for name, xs := range mt.per {
		L[name] = median(xs)
	}
	tcp := median(rep.opMS)
	L["mp.tcp_overhead_ms"] = tcp - median(mt.inproc)
	if tcp > 0 {
		L["mesh.speedup"] = L["mesh.baseline_ms"] / tcp
	}
	if b := mean(mt.baseTracks); b > 0 {
		L["mesh.scaled_tracks"] = mean(mt.tcpTracks) / b
	}
	L["trace.op_ms_p50"] = tcp
	L["trace.tracks"] = mean(rep.tracks)
	L["trace.area"] = mean(rep.area)
	return rep, nil
}

// tracedOp runs one traced op: the partition calls parallel.Run makes,
// the op itself on TCP and on the in-process engine, the grid allreduce
// on both engines, an empty TCP engine run, and the serial baseline.
func (w *meshWL) tracedOp(ctx context.Context, t *tracer, op int, seed uint64, mt *meshTrace) error {
	per, rep := mt.per, mt.rep
	var blocks []partition.RowBlock
	sp, err := t.call(op, 0, "partition.row_blocks", func() (err error) {
		blocks, err = partition.RowBlocks(w.c, meshProcs)
		return err
	})
	if err != nil {
		return fmt.Errorf("perfbench: row blocks: %w", err)
	}
	per.add("partition.row_blocks_ms", sp.ms())
	sp, err = t.call(op, 0, "partition.nets", func() error {
		_, err := partition.Nets(w.c, blocks, meshProcs, partition.Config{Method: partition.PinWeight})
		return err
	})
	if err != nil {
		return fmt.Errorf("perfbench: net partition: %w", err)
	}
	per.add("partition.nets_ms", sp.ms())

	var res *metrics.Result
	sp, err = t.call(op, 0, "parallel.run.tcp", func() (err error) {
		res, err = parallel.Run(ctx, w.c, w.opts(seed, mp.TCP))
		return err
	})
	if err != nil {
		return err
	}
	var phases time.Duration
	for _, ph := range res.Phases {
		if !slices.Contains(meshStages, ph.Name) {
			return fmt.Errorf("perfbench: net-wise run reported an unknown phase %q", ph.Name)
		}
		phases += ph.Elapsed
		per.add("parallel."+strings.ReplaceAll(ph.Name, "-", "_")+"_ms", msOf(ph.Elapsed))
	}
	per.add("parallel.outside_stages_ms", sp.ms()-msOf(phases))
	rep.busy += time.Duration(sp.End - sp.Start)
	rep.done(sp.ms(), res)
	mt.tcpTracks = append(mt.tcpTracks, float64(res.TotalTracks))
	if err := w.check(seed, res); err != nil {
		return err
	}

	sp, err = t.call(op, 0, "parallel.run.inproc", func() (err error) {
		res, err = parallel.Run(ctx, w.c, w.opts(seed, mp.Inproc))
		return err
	})
	if err != nil {
		return err
	}
	mt.inproc = append(mt.inproc, sp.ms())
	if err := w.check(seed, res); err != nil {
		return err
	}

	for _, m := range []struct {
		name string
		mode mp.Mode
	}{{"tcp", mp.TCP}, {"inproc", mp.Inproc}} {
		var ms float64
		if _, err := t.call(op, 0, "mp.allreduce_grid."+m.name, func() (err error) {
			ms, err = timeAllreduce(ctx, m.mode, mt.gridLen)
			return err
		}); err != nil {
			return err
		}
		per.add("mp.allreduce_grid_ms."+m.name, ms)
	}
	eng, err := mp.Config{Procs: meshProcs, Mode: mp.TCP}.Engine()
	if err != nil {
		return fmt.Errorf("perfbench: tcp engine: %w", err)
	}
	sp, err = t.call(op, 0, "mp.engine_start.tcp", func() error {
		_, err := eng.Run(ctx, meshProcs, func(mp.Comm) error { return nil })
		return err
	})
	if err != nil {
		return fmt.Errorf("perfbench: empty tcp run: %w", err)
	}
	per.add("mp.engine_start_ms.tcp", sp.ms())

	sp, err = t.call(op, 0, "parallel.baseline", func() (err error) {
		res, err = parallel.RunBaseline(ctx, w.c, w.opts(seed, mp.Inproc))
		return err
	})
	if err != nil {
		return fmt.Errorf("perfbench: baseline: %w", err)
	}
	per.add("mesh.baseline_ms", sp.ms())
	mt.baseTracks = append(mt.baseTracks, float64(res.TotalTracks))
	return nil
}

// timeAllreduce runs one grid-sized mp.AllreduceInt32s over meshProcs
// ranks on a fresh engine of the given mode and returns the slowest
// rank's time inside the collective, engine start-up excluded. The
// result must be the element-wise sum.
func timeAllreduce(ctx context.Context, mode mp.Mode, n int) (float64, error) {
	eng, err := mp.Config{Procs: meshProcs, Mode: mode}.Engine()
	if err != nil {
		return 0, fmt.Errorf("perfbench: engine: %w", err)
	}
	var took [meshProcs]float64
	_, err = eng.Run(ctx, meshProcs, func(c mp.Comm) error {
		v := make([]int32, n)
		for i := range v {
			v[i] = int32(i%7 + c.Rank())
		}
		start := now()
		sum, err := mp.AllreduceInt32s(c, gridAllreduceTag, v, mp.SumInt32s)
		took[c.Rank()] = msSince(start)
		if err != nil {
			return err
		}
		for i, x := range sum {
			if want := int32(meshProcs*(i%7) + meshProcs*(meshProcs-1)/2); x != want {
				return fmt.Errorf("perfbench: allreduce element %d is %d, want %d", i, x, want)
			}
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("perfbench: allreduce on %v: %w", mode, err)
	}
	slowest := 0.0
	for _, ms := range took {
		slowest = max(slowest, ms)
	}
	return slowest, nil
}
