package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"neurocard/internal/query"
	"neurocard/internal/server"
	"neurocard/internal/workload"
)

type runOpts struct {
	seed   int64
	window time.Duration
	trace  bool
	outDir string // scratch for checkpoints and journals, removed by the caller

	refMatmul float64           // the machine calibration, taken before the run
	tracePath string            // where a traced run writes its spans
	env       map[string]string // recorded with the spans
}

// result is what one invocation measured. metrics holds exactly the metrics
// that exist on the workload in the chosen mode: end-to-end ones on an
// untraced run, per-layer ones on a traced run.
type result struct {
	metrics   map[string]float64
	samples   map[string]int // sample count behind a percentile or a median
	attempted int
	failed    int
	problems  []string  // reasons the run's outputs are not valid
	bySlice   []float64 // est_qps of each slice of the window: how steady the machine was within the run
}

func (r *result) set(name string, v float64)         { r.metrics[name] = v }
func (r *result) setN(name string, v float64, n int) { r.metrics[name], r.samples[name] = v, n }

func (r *result) problem(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}
func (r *result) tally(t tally)  { r.attempted, r.failed = r.attempted+t.sent, r.failed+t.failed }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func (r *result) pct(name string, sorted []float64, q float64, minTail int) error {
	v, _, err := percentile(sorted, q, minTail)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	r.setN(name, v, len(sorted))
	return nil
}

// run measures one workload once.
func run(cfg config, w workloadSpec, o runOpts) (*result, error) {
	res := &result{metrics: map[string]float64{}, samples: map[string]int{}}
	clk := realClock{epoch: time.Now()}

	m, err := setUp(cfg, filepath.Join(o.outDir, "model"), w.precision)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer m.close()

	// Inputs, all from the seed.
	t0 := time.Now()
	gen := newQueryGen(m.d, o.seed)
	qs := w.queries(gen, cfg)
	reqs, err := estimateRequests(qs, w.binary, cfg.batchQueries)
	if err != nil {
		return nil, err
	}
	planned := 0
	if w.ingest {
		planned = int(math.Ceil((cfg.warmup+o.window).Seconds()*cfg.ingestRate*(1+cfg.jitter))) + 4
	}
	plan, err := gen.ingestPlan(m.d.Schema, planned+scriptedBatches, cfg.ingestRows)
	if err != nil {
		return nil, err
	}
	querygen := time.Since(t0)
	golden, err := workload.Golden(m.d, cfg.goldenN, cfg.goldenSeed)
	if err != nil {
		return nil, err
	}

	tr := &tracer{clk: clk}
	if o.trace {
		err = m.serve(tr.middleware)
	} else {
		err = m.serve(nil)
	}
	if err != nil {
		return nil, err
	}
	cl := newClient(m.base, 2, clk, tr)
	defer cl.close()

	qerrs, err := correctnessPass(cfg, w, cl, m, golden)
	if err != nil {
		return nil, fmt.Errorf("correctness pass: %w", err)
	}

	ld := &load{
		cfg: cfg, w: w, cl: cl, clk: clk, m: m, tr: tr,
		rng:    rand.New(rand.NewSource(o.seed ^ 0x5eed)),
		reqs:   reqs,
		ingest: ingestRequests(plan[:planned]),
	}
	if warm := ld.phase(cfg.warmup, 1, false, false); warm.err != nil {
		return nil, warm.err
	}

	if o.trace {
		lm := &layerRun{cfg: cfg, w: w, o: o, m: m, ld: ld, qs: qs, plan: plan[planned:], res: res, querygen: querygen}
		return res, lm.run()
	}

	before, err := scrapeMetrics(cl.hc, m.base)
	if err != nil {
		return nil, err
	}
	slice := cfg.slice
	if w.ingest {
		slice = cfg.refreshEvery
	}
	win := ld.phase(o.window, max(1, int(o.window/slice)), true, false)
	if win.err != nil {
		return nil, win.err
	}
	after, err := scrapeMetrics(cl.hc, m.base)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	res.set("setup_s", m.total.Seconds())
	if err := win.endToEnd(res, cfg); err != nil {
		return nil, err
	}
	if fb := after["neurocard_fallback_total"] - before["neurocard_fallback_total"]; fb != 0 {
		res.problem("%g estimates were answered by the fallback histogram", fb)
	}
	sum := workload.Summarize(qerrs)
	res.setN("qerr_p50", sum.Median, len(qerrs))
	res.setN("qerr_p95", sum.P95, len(qerrs))
	entry, err := m.current()
	if err != nil {
		return nil, err
	}
	res.set("weight_bytes", float64(entry.Est.ServingWeightBytes()))
	res.set("heap_mb", float64(mem.HeapInuse)/(1<<20))
	if w.ingest {
		var secs []float64
		for _, r := range win.refreshes {
			secs = append(secs, (r.end - r.start).Seconds())
			if r.err != nil || !r.res.Refreshed || !r.res.Checkpointed {
				res.problem("refresh at %v: %+v err=%v", r.start, r.res, r.err)
			}
		}
		if len(secs) == 0 {
			return nil, errors.New("no refresh ran in the window")
		}
		res.setN("refresh_s", median(secs), len(secs))
	}
	return res, nil
}

// load is the load generator's state across phases: the estimate cycle and
// the ingest cursor carry on from warm-up into the timed windows.
type load struct {
	cfg config
	w   workloadSpec
	cl  *client
	clk clock
	m   *served
	tr  *tracer
	rng *rand.Rand // arrival jitter

	reqs    []request
	estBase int
	ingest  []request
	ingBase int
}

type refreshRun struct {
	start, end time.Duration
	res        server.RefreshResult
	err        error
}

// phaseResult is everything one window saw.
type phaseResult struct {
	from, window time.Duration
	est          []op            // estimate operations, in start order
	due          []time.Duration // their schedule, on the open-loop workload
	ing          []op            // ingest operations
	refreshes    []refreshRun
	cpuAt        []time.Duration // process CPU time at each slice boundary
	err          error           // the CPU time could not be read
}

// phase drives the workload for one window and returns when every operation
// it started has ended. The window is cut into equal slices: the process's CPU
// time is read at each boundary, and with tracePairs tracing is on in one slice
// of every pair (see tracedSlice), so that the traced and the untraced slices
// of a traced run see the same machine, second by second. On
// the ingest workload a refresh starts every cfg.refreshEvery, the first after
// half of that: cfg.refreshEvery is that workload's slice of the untraced
// window, so every slice holds one refresh, in its middle, and the median slice
// pays for one. The read-only workloads take shorter slices (cfg.slice): the
// more slices, the more stalls of the host the median shrugs off.
func (l *load) phase(window time.Duration, slices int, refresh, tracePairs bool) phaseResult {
	p := phaseResult{from: l.clk.Now(), window: window, cpuAt: make([]time.Duration, slices+1)}
	deadline := p.from + window
	boundary := func(k int) time.Duration { return p.from + window*time.Duration(k)/time.Duration(slices) }
	var wg sync.WaitGroup
	p.cpuAt[0], p.err = cpuTime()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k <= slices; k++ {
			l.clk.SleepUntil(boundary(k))
			var err error
			if p.cpuAt[k], err = cpuTime(); err != nil {
				p.err = err
			}
			if tracePairs {
				l.cl.traced.Store(tracedSlice(k) && k < slices)
			}
		}
	}()
	if l.w.ingest {
		due := schedule(l.rng, p.from, window, l.cfg.ingestRate, l.cfg.jitter)
		base := l.ingBase
		l.ingBase += len(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.ing = drive(l.clk, 1, scheduled(due), func(i int, o *op) {
				if base+i >= len(l.ingest) { // the plan is sized with slack; running out is a bug
					o.failed = true
					return
				}
				l.cl.send(&l.ingest[base+i], o)
			})
		}()
		if refresh {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for at := p.from + l.cfg.refreshEvery/2; at < deadline; at += l.cfg.refreshEvery {
					l.clk.SleepUntil(at)
					if l.clk.Now() >= deadline {
						return
					}
					p.refreshes = append(p.refreshes, l.refresh())
				}
			}()
		}
	}
	base := l.estBase
	send := func(i int, o *op) { l.cl.send(&l.reqs[(base+i)%len(l.reqs)], o) }
	if l.w.open {
		p.due = schedule(l.rng, p.from, window, l.cfg.probeRate, l.cfg.jitter)
		p.est = drive(l.clk, 2, scheduled(p.due), send)
	} else {
		p.est = drive(l.clk, l.w.clients, closedUntil(l.clk, deadline), send)
	}
	l.estBase += len(p.est)
	wg.Wait()
	return p
}

// tracedSlice says whether slice k of a traced window is traced. Slices 2j and
// 2j+1 are a pair; the traced one comes second in even pairs and first in odd
// ones, so that neither a drift over the window nor something periodic in it
// (a refresh) always falls on the same side.
func tracedSlice(k int) bool { return k%4 == 1 || k%4 == 2 }

// refresh is what neurocardd's background loop does on its tick.
func (l *load) refresh() refreshRun {
	r := refreshRun{start: l.clk.Now()}
	r.res, r.err = l.m.srv.RefreshModel(modelName, l.cfg.refreshTune)
	r.end = l.clk.Now()
	l.tr.add(span{Name: "server.refresh", ID: l.tr.newID(), Start: r.start, End: r.end})
	return r
}

// sliceStat is what one slice of a window saw.
type sliceStat struct {
	qps, p50, p95, cpuMsPerEst float64
}

// slices cuts the window's estimates into its slices, by the instant each was
// answered. A window's metric is the median of its slices' values: on a
// shared two-core machine a neighbour's burst or a collection slows a second
// or two of a window, and the mean over the window would carry that into the
// result while the median slice does not.
func (p phaseResult) slices(minTail int) ([]sliceStat, error) {
	n := len(p.cpuAt) - 1
	length := p.window / time.Duration(n)
	ops := make([][]op, n)
	for _, o := range p.est {
		if k := int((o.end - p.from) / length); k < n { // not the request a closed-loop client held at the deadline
			ops[k] = append(ops[k], o)
		}
	}
	out := make([]sliceStat, n)
	for k := range out {
		t, lat := count(ops[k]), okLatencies(ops[k])
		if t.n == 0 {
			return nil, fmt.Errorf("slice %d of the window answered no estimate", k)
		}
		p50, _, err := percentile(lat, 0.50, minTail)
		if err != nil {
			return nil, fmt.Errorf("slice %d: %w", k, err)
		}
		p95, _, err := percentile(lat, 0.95, minTail)
		if err != nil {
			return nil, fmt.Errorf("slice %d: %w", k, err)
		}
		out[k] = sliceStat{
			qps:         float64(t.n) / length.Seconds(),
			p50:         p50,
			p95:         p95,
			cpuMsPerEst: ms(p.cpuAt[k+1]-p.cpuAt[k]) / float64(t.n),
		}
	}
	return out, nil
}

func medianOf(ss []sliceStat, f func(sliceStat) float64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return median(xs)
}

// endToEnd fills in the end-to-end metrics a window yields, as clocked, and
// checks that the window is valid.
func (p phaseResult) endToEnd(res *result, cfg config) error {
	t := count(p.est)
	res.tally(t)
	res.tally(count(p.ing))
	ss, err := p.slices(cfg.minTail)
	if err != nil {
		return err
	}
	for _, s := range ss {
		res.bySlice = append(res.bySlice, s.qps)
	}
	res.setN("est_qps", medianOf(ss, func(s sliceStat) float64 { return s.qps }), t.n)
	res.setN("est_p50_ms", medianOf(ss, func(s sliceStat) float64 { return s.p50 }), t.sent-t.failed)
	res.setN("est_p95_ms", medianOf(ss, func(s sliceStat) float64 { return s.p95 }), t.sent-t.failed)
	res.setN("cpu_ms_per_est", medianOf(ss, func(s sliceStat) float64 { return s.cpuMsPerEst }), t.n)
	res.set("ok_frac", 1-float64(res.failed)/float64(res.attempted))
	if p.due != nil && backlogGrowing(p.est, cfg.probeRate) {
		res.problem("open loop: the backlog was still growing when the window ended")
	}
	if res.failed > 0 {
		res.problem("%d of %d operations failed", res.failed, res.attempted)
	}
	return nil
}

// correctnessPass sends the golden queries, seeded, through the workload's
// own wire format and precision, and fails unless: every served estimate
// equals the in-process EstimateSeededIndexed of the served estimator (1e-9
// relative at float64, 1e-4 at float32) and, at float64, of the estimator
// that was trained (so the checkpoint round trip is covered); the other wire
// format answers bit-for-bit the same; and every estimate is finite and >= 1.
// It returns the q-errors against the exact executor's labels.
func correctnessPass(cfg config, w workloadSpec, cl *client, m *served, golden *workload.Workload) ([]float64, error) {
	group, tol := 1, 1e-9
	if w.binary {
		group = cfg.batchQueries
	}
	f32 := w.precision == "float32"
	if f32 {
		tol = 1e-4
	}
	seed := cfg.requestSeed
	qerrs := make([]float64, 0, len(golden.Queries))
	for lo := 0; lo < len(golden.Queries); lo += group {
		hi := min(lo+group, len(golden.Queries))
		qs := make([]queryT, hi-lo)
		for j := range qs {
			var err error
			if qs[j], err = wrap(golden.Queries[lo+j].Query); err != nil {
				return nil, err
			}
		}
		var answers [2][]float64 // JSON, NCB
		for k, binary := range []bool{false, true} {
			req, err := encodeRequest(qs, binary, &seed)
			if err != nil {
				return nil, err
			}
			var o op
			body := cl.send(&req, &o)
			if o.failed {
				return nil, fmt.Errorf("golden queries %d..%d (binary=%v) failed: %s", lo, hi, binary, body)
			}
			answers[k], _ = decodeEstimates(req.kind, body)
		}
		own := answers[0]
		if w.binary {
			own = answers[1]
		}
		for j, got := range own {
			lq := golden.Queries[lo+j]
			idx := int64(j)
			if math.Float64bits(answers[0][j]) != math.Float64bits(answers[1][j]) {
				return nil, fmt.Errorf("golden query %d: JSON answered %.17g, NCB %.17g", lo+j, answers[0][j], answers[1][j])
			}
			if math.IsNaN(got) || math.IsInf(got, 0) || got < 1 {
				return nil, fmt.Errorf("golden query %d: estimate %g is not finite and >= 1", lo+j, got)
			}
			refs := []func(query.Query, int64, int64) (float64, error){m.entry.Est.EstimateSeededIndexed}
			if !f32 {
				refs = append(refs, m.est.EstimateSeededIndexed)
			}
			for _, ref := range refs {
				want, err := ref(lq.Query, seed, idx)
				if err != nil {
					return nil, err
				}
				if math.Abs(got-want) > tol*math.Max(1, math.Abs(want)) {
					return nil, fmt.Errorf("golden query %d: served %.17g, in-process %.17g", lo+j, got, want)
				}
			}
			qerrs = append(qerrs, workload.QError(got, lq.TrueCard))
		}
	}
	return qerrs, nil
}
