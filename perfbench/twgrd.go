package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"

	"parroute/internal/circuit"
	"parroute/internal/metrics"
	"parroute/internal/parallel"
	"parroute/internal/rng"
	"parroute/internal/runcfg"
	"parroute/internal/service"
)

// twgrdClients closed-loop clients drive a daemon with twgrdWorkers
// routing workers: one of each per CPU of the two-CPU reference host.
const (
	twgrdClients = 2
	twgrdWorkers = 2
)

// twgrdWL is twgrd.mixed: one op is a POST /v1/jobs round trip to an
// in-process daemon on a loopback listener. Each round starts a fresh
// daemon with an empty cache and plays every client's job list once, so
// the job lists alone fix which jobs hit the cache.
type twgrdWL struct {
	seed    uint64
	presets []string // circuits jobs name as presets
	inline  string   // circuit jobs send inline, as gensc JSON
	// A combo is one circuit (a preset, or the inline one) with one
	// algorithm (serial, or hybrid on 2 ranks). Each client sends
	// coldPerCombo jobs of every combo with keys of its own, then repeats
	// one of its earlier keys per combo, so a quarter of the jobs repeat
	// when coldPerCombo is 3. Keys never repeat across clients, so every
	// repeat is a cache hit: a closed-loop client can not ask for a key
	// while it is in flight, and no job coalesces.
	coldPerCombo int

	lists   [twgrdClients][]twgrdJob
	ref     refSet
	quality map[string][2]float64 // key → tracks, area
}

type twgrdJob struct {
	key    string
	spec   service.JobSpec
	combo  int
	repeat bool
}

func (w *twgrdWL) refs() refSet { return w.ref }

func (w *twgrdWL) setup(ctx context.Context) error {
	r := rng.New(w.seed)
	c, err := runcfg.LoadPreset(w.inline, genSeed)
	if err != nil {
		return fmt.Errorf("perfbench: generating %s: %w", w.inline, err)
	}
	var inline bytes.Buffer
	if err := c.WriteJSON(&inline); err != nil {
		return fmt.Errorf("perfbench: encoding %s: %w", w.inline, err)
	}

	type combo struct {
		preset string // "" for the inline circuit
		algo   string
		procs  int
	}
	var combos []combo
	for _, p := range append(append([]string(nil), w.presets...), "") {
		combos = append(combos, combo{p, runcfg.AlgoSerial, 1}, combo{p, "hybrid", 2})
	}
	used := map[string]bool{}
	newJob := func(k int) twgrdJob {
		cb := combos[k]
		for {
			j := twgrdJob{combo: k}
			j.spec = service.JobSpec{Algo: cb.algo, Procs: cb.procs, Engine: "virtual", Seed: uint64(r.Intn(1<<30)) + 1}
			if cb.preset != "" {
				j.spec.Preset, j.spec.GenSeed = cb.preset, genSeed
				j.key = "preset:" + cb.preset
			} else {
				j.spec.CircuitJSON = inline.Bytes()
				j.key = "inline:" + w.inline
			}
			j.key += fmt.Sprintf("|%s|p%d|s%d", cb.algo, cb.procs, j.spec.Seed)
			if !used[j.key] {
				used[j.key] = true
				return j
			}
		}
	}
	w.ref, w.quality = refSet{}, map[string][2]float64{}
	for cl := range w.lists {
		var list []twgrdJob
		for i := 0; i < w.coldPerCombo; i++ {
			for k := range combos {
				j := newJob(k)
				list = append(list, j)
				b, res, err := oneShot(ctx, nil, 0, j.spec)
				if err != nil {
					return err
				}
				w.ref[j.key] = sha256.Sum256(b)
				w.quality[j.key] = [2]float64{float64(res.TotalTracks), float64(res.Area)}
			}
		}
		r.Shuffle(len(list), func(a, b int) { list[a], list[b] = list[b], list[a] })
		// One repeat per combo, of a random earlier job of that combo, at
		// a random point after it.
		for k := range combos {
			var at []int
			for i, j := range list {
				if j.combo == k && !j.repeat {
					at = append(at, i)
				}
			}
			orig := at[r.Intn(len(at))]
			rep := list[orig]
			rep.repeat = true
			list = slices.Insert(list, orig+1+r.Intn(len(list)-orig), rep)
		}
		w.lists[cl] = list
	}
	// The daemon's start-up is set-up too: every round pays it once.
	d, err := startDaemon(ctx)
	if err != nil {
		return err
	}
	return d.stop(ctx)
}

// oneShot computes a job the way the daemon does, but directly: load the
// circuit, route it with the daemon's default configuration, and encode
// the canonical result. With a tracer each step is a span.
func oneShot(ctx context.Context, t *tracer, op int, spec service.JobSpec) ([]byte, *metrics.Result, error) {
	run := runcfg.Default()
	run.Algo, run.Procs, run.Seed, run.Engine = spec.Algo, spec.Procs, spec.Seed, spec.Engine
	opts, err := run.Options()
	if err != nil {
		return nil, nil, fmt.Errorf("perfbench: job options: %w", err)
	}
	var c *circuit.Circuit
	if spec.Preset != "" {
		_, err = t.call(op, 0, "runcfg.load_preset", func() (err error) {
			c, err = runcfg.LoadPreset(spec.Preset, spec.GenSeed)
			return err
		})
	} else {
		_, err = t.call(op, 0, "circuit.read_json", func() (err error) {
			c, err = circuit.ReadJSON(bytes.NewReader(spec.CircuitJSON))
			return err
		})
	}
	if err != nil {
		return nil, nil, fmt.Errorf("perfbench: loading job circuit: %w", err)
	}
	var res *metrics.Result
	_, err = t.call(op, 0, "service.route", func() (err error) {
		if run.Serial() {
			res, err = parallel.RunBaseline(ctx, c, opts)
		} else {
			res, err = parallel.Run(ctx, c, opts)
		}
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("perfbench: one-shot route: %w", err)
	}
	var b []byte
	_, err = t.call(op, 0, "service.canonical", func() (err error) {
		b, err = service.CanonicalResult(res)
		return err
	})
	return b, res, err
}

// daemon is one in-process twgrd: a service.Server behind an HTTP server
// on a loopback listener.
type daemon struct {
	srv     *service.Server
	hs      *http.Server
	url     string
	client  *http.Client
	stopSrv context.CancelFunc
	serving sync.WaitGroup
}

func startDaemon(ctx context.Context) (*daemon, error) {
	d := &daemon{srv: service.New(service.Config{Workers: twgrdWorkers})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("perfbench: listening: %w", err)
	}
	sctx, cancel := context.WithCancel(ctx)
	d.stopSrv = cancel
	d.srv.Start(sctx)
	d.hs = &http.Server{Handler: d.srv.Handler()}
	d.url = "http://" + ln.Addr().String() + "/v1/jobs"
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: twgrdClients}}
	d.serving.Add(1)
	go func() {
		defer d.serving.Done()
		if err := d.hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: daemon stopped serving:", err)
		}
	}()
	return d, nil
}

// stop shuts the HTTP server down, then the routing workers, and waits
// for both.
func (d *daemon) stop(ctx context.Context) error {
	err := d.hs.Shutdown(ctx)
	d.serving.Wait()
	d.client.CloseIdleConnections()
	d.stopSrv()
	d.srv.Wait()
	if err != nil {
		return fmt.Errorf("perfbench: stopping daemon: %w", err)
	}
	return nil
}

// jobOut is what one client saw of one job.
type jobOut struct {
	job      twgrdJob
	ms       float64
	hit      bool
	err      error
	enc, dec float64 // envelope encode/decode spans (traced runs)
}

// post runs one op: encode the job envelope, POST it, and decode the
// result envelope. The response's canonical result bytes must hash to
// the job's reference.
func (w *twgrdWL) post(ctx context.Context, d *daemon, t *tracer, op int, j twgrdJob) jobOut {
	out := jobOut{job: j}
	start := now()
	root := t.begin(op, 0, "twgrd.job")
	var body []byte
	sp, err := t.call(op, root, "service.envelope_encode", func() (err error) {
		body, err = service.Encode(service.KindJob, j.spec)
		return err
	})
	out.enc = sp.ms()
	var raw []byte
	if err == nil {
		_, err = t.call(op, root, "http.post", func() (err error) {
			raw, err = roundTrip(ctx, d, body)
			return err
		})
	}
	var jr service.JobResult
	if err == nil {
		sp, err = t.call(op, root, "service.envelope_decode", func() error {
			env, err := service.Decode(raw)
			if err != nil {
				return err
			}
			return env.DecodeBody(service.KindResult, &jr)
		})
		out.dec = sp.ms()
	}
	t.end(root)
	out.ms = msSince(start)
	if err == nil {
		err = w.ref.check(j.key, sha256.Sum256(jr.Metrics))
	}
	out.hit, out.err = jr.CacheHit, err
	return out
}

func roundTrip(ctx context.Context, d *daemon, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("perfbench: building request: %w", err)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("perfbench: POST: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("perfbench: reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("perfbench: daemon answered %s: %s", resp.Status, raw)
	}
	return raw, nil
}

// roundOut is one round: every client's job list played once against a
// fresh daemon.
type roundOut struct {
	jobs  []jobOut
	wall  time.Duration
	stats service.Stats
}

func (w *twgrdWL) round(ctx context.Context, t *tracer, opBase int) (*roundOut, error) {
	d, err := startDaemon(ctx)
	if err != nil {
		return nil, err
	}
	outs := make([][]jobOut, twgrdClients)
	start := now()
	var clients sync.WaitGroup
	for cl := 0; cl < twgrdClients; cl++ {
		clients.Add(1)
		go func(cl int) {
			defer clients.Done()
			for i, j := range w.lists[cl] {
				outs[cl] = append(outs[cl], w.post(ctx, d, t, opBase+cl*len(w.lists[cl])+i+1, j))
			}
		}(cl)
	}
	clients.Wait()
	ro := &roundOut{wall: now().Sub(start), stats: d.srv.Stats()}
	for _, o := range outs {
		ro.jobs = append(ro.jobs, o...)
	}
	return ro, d.stop(ctx)
}

func (w *twgrdWL) jobsPerRound() int { return len(w.lists[0]) + len(w.lists[1]) }

// play runs rounds until d has passed and folds the ops into a report.
func (w *twgrdWL) play(ctx context.Context, d time.Duration, t *tracer) (*report, []*roundOut, error) {
	rep := &report{}
	var rounds []*roundOut
	deadline := now().Add(d)
	for more := true; more; more = now().Before(deadline) {
		ro, err := w.round(ctx, t, len(rounds)*w.jobsPerRound())
		if err != nil {
			return nil, nil, err
		}
		rounds = append(rounds, ro)
		rep.busy += ro.wall
		for _, o := range ro.jobs {
			rep.attempted++
			if o.err != nil {
				rep.fail(o.err)
				continue
			}
			q := w.quality[o.job.key]
			rep.opMS = append(rep.opMS, o.ms)
			rep.tracks = append(rep.tracks, q[0])
			rep.area = append(rep.area, q[1])
		}
	}
	return rep, rounds, nil
}

func (w *twgrdWL) measure(ctx context.Context, d time.Duration) (*report, error) {
	rep, _, err := w.play(ctx, d, nil)
	return rep, err
}

func (w *twgrdWL) traced(ctx context.Context, d time.Duration, t *tracer) (*report, error) {
	rep, rounds, err := w.play(ctx, d, t)
	if err != nil {
		return nil, err
	}
	L := map[string]float64{}
	rep.layer = L

	// Each cold key once more, outside the daemon: computed directly, and
	// submitted directly to a fresh server without HTTP.
	op := len(rounds) * w.jobsPerRound()
	compute, direct := map[string]float64{}, map[string]float64{}
	per := samples{}
	srv := service.New(service.Config{Workers: twgrdWorkers})
	sctx, stop := context.WithCancel(ctx)
	srv.Start(sctx)
	defer func() {
		stop()
		srv.Wait()
	}()
	for _, list := range w.lists {
		for _, j := range list {
			if j.repeat {
				continue
			}
			op++
			rep.attempted++
			start := now()
			b, _, err := oneShot(ctx, t, op, j.spec)
			compute[j.key] = msSince(start)
			if err == nil {
				err = w.ref.check(j.key, sha256.Sum256(b))
			}
			if err != nil {
				rep.fail(err)
			}

			rep.attempted++
			start = now()
			sp, err := t.call(op, 0, "service.submit_wait", func() error {
				tk, err := srv.Submit(ctx, j.spec)
				if err != nil {
					return err
				}
				res, err := tk.Wait(ctx)
				if err != nil {
					return err
				}
				b = res.Metrics
				return nil
			})
			direct[j.key] = sp.ms()
			if err == nil {
				err = w.ref.check(j.key, sha256.Sum256(b))
			}
			if err != nil {
				rep.fail(err)
			}
		}
	}
	for _, s := range t.closed() {
		switch s.Name {
		case "runcfg.load_preset", "circuit.read_json", "service.route", "service.canonical":
			per.add(s.Name+"_ms", s.ms())
		}
	}
	for _, name := range []string{"runcfg.load_preset_ms", "circuit.read_json_ms", "service.route_ms", "service.canonical_ms"} {
		L[name] = mean(per[name])
	}

	var enc, dec, httpOver, wait, hits []float64
	for _, ro := range rounds {
		for _, o := range ro.jobs {
			enc, dec = append(enc, o.enc), append(dec, o.dec)
			if o.err != nil {
				continue
			}
			if o.hit {
				hits = append(hits, o.ms)
				continue
			}
			httpOver = append(httpOver, o.ms-direct[o.job.key])
			wait = append(wait, o.ms-compute[o.job.key])
		}
	}
	L["service.envelope_encode_ms"] = mean(enc)
	L["service.envelope_decode_ms"] = mean(dec)
	L["service.http_ms_p50"] = median(httpOver)
	L["service.wait_ms_p95"] = percentile(wait, 0.95)
	L["service.hit_ms_p50"] = median(hits)

	// Per round, and equal in every round: the job lists fix them.
	var computed, cached, coalesced, rejected, hitFrac []float64
	for _, ro := range rounds {
		s := ro.stats
		computed = append(computed, float64(s.Completed))
		cached = append(cached, float64(s.CacheHits))
		coalesced = append(coalesced, float64(s.Coalesced))
		rejected = append(rejected, float64(s.RejectedOverload+s.RejectedDraining+s.RejectedInvalid))
		hitFrac = append(hitFrac, ratio(int(s.CacheHits+s.Coalesced), int(s.Submitted)))
	}
	L["service.jobs_computed"] = mean(computed)
	L["service.cache_hits"] = mean(cached)
	L["service.coalesced"] = mean(coalesced)
	L["service.rejected"] = mean(rejected)
	L["service.hit_frac"] = mean(hitFrac)

	L["trace.op_ms_p50"] = median(rep.opMS)
	L["trace.tracks"] = mean(rep.tracks)
	L["trace.area"] = mean(rep.area)
	return rep, nil
}
