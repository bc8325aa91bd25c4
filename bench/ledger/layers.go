package main

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"neurocard/internal/core"
	"neurocard/internal/ingest"
	"neurocard/internal/made"
	"neurocard/internal/nn"
	"neurocard/internal/query"
	"neurocard/internal/sampler"
	"neurocard/internal/server"
)

// scriptedBatches is how many planned row batches are held back, unsent, for
// the scripted ingest, sampler and core passes.
const scriptedBatches = 24

// layerRun is the traced run after warm-up: one window in which every second
// slice is traced, an in-process replay of the same requests against the
// served estimator, then scripted passes that call each layer directly at the
// pinned model's shapes. Every timing is taken from here, around the call;
// nothing inside the program is instrumented.
type layerRun struct {
	cfg      config
	w        workloadSpec
	o        runOpts
	m        *served
	ld       *load
	qs       []queryT
	plan     []*ingest.RowBatch // unsent batches
	res      *result
	querygen time.Duration
}

func (l *layerRun) run() error {
	res, cl := l.res, l.ld.cl
	before, err := scrapeMetrics(cl.hc, l.m.base)
	if err != nil {
		return err
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	win := l.ld.phase(l.o.window, 2*l.cfg.pairs, true, true)
	if win.err != nil {
		return win.err
	}
	runtime.ReadMemStats(&mem1)
	after, err := scrapeMetrics(cl.hc, l.m.base)
	if err != nil {
		return err
	}
	spans := l.ld.tr.take()

	// loadgen: the validity of the run. Tracing's cost is the throughput each
	// traced slice lost against the untraced slice of its pair.
	est, ing := count(win.est), count(win.ing)
	res.tally(est)
	res.tally(ing)
	ss, err := win.slices(0)
	if err != nil {
		return err
	}
	cost := make([]float64, 0, l.cfg.pairs)
	for k := 0; k+1 < len(ss); k += 2 {
		plain, traced := ss[k], ss[k+1]
		if tracedSlice(k) {
			plain, traced = traced, plain
		}
		cost = append(cost, 1-traced.qps/plain.qps)
	}
	res.set("loadgen.sent", float64(est.sent+ing.sent))
	res.set("loadgen.ok", float64(est.sent+ing.sent-est.failed-ing.failed))
	res.set("loadgen.failed", float64(est.failed+ing.failed))
	res.set("loadgen.querygen_s", l.querygen.Seconds())
	res.setN("trace.overhead_frac", median(cost), len(cost))
	lat := okLatencies(win.est)
	if exists("loadgen.p99_ms", l.w.name) { // 16-query batches are too few per window for a p99
		if err := res.pct("loadgen.p99_ms", lat, 0.99, l.cfg.minTail); err != nil {
			return err
		}
	}
	if err := l.lateness(win); err != nil {
		return err
	}
	if res.failed > 0 {
		res.problem("%d of %d operations failed", res.failed, res.attempted)
	}
	for _, r := range win.refreshes {
		if r.err != nil || !r.res.Refreshed || !r.res.Checkpointed {
			res.problem("refresh at %v: %+v err=%v", r.start, r.res, r.err)
		}
	}

	// http and server, from the spans of the traced slices.
	handler := map[int64]span{}
	for _, s := range spans {
		if s.Name == "server.handler" {
			handler[s.Req] = s
		}
	}
	self := selfTimes(spans)
	var traced []op // the estimate requests that were answered with tracing on
	var httpSelf, handlerUs []float64
	for _, o := range win.est {
		if h, ok := handler[o.seq]; ok && !o.failed {
			traced = append(traced, o)
			httpSelf = append(httpSelf, us(self[clientSpanID(o.seq)]))
			handlerUs = append(handlerUs, us(h.dur()))
		}
	}
	sort.Float64s(httpSelf)
	sort.Float64s(handlerUs)
	for _, p := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"http.self_p50_us", httpSelf, 0.50}, {"http.self_p95_us", httpSelf, 0.95},
		{"server.handler_p50_us", handlerUs, 0.50}, {"server.handler_p95_us", handlerUs, 0.95},
	} {
		if err := res.pct(p.name, p.xs, p.q, l.cfg.minTail); err != nil {
			return err
		}
	}
	for name, hist := range map[string]string{
		"server.fuse_batch_mean":  "neurocard_fused_batch_size",
		"server.fuse_window_us":   "neurocard_coalesce_window_seconds",
		"server.queue_depth_mean": "neurocard_coalesce_queue_depth",
	} {
		if v, ok := histMean(before, after, hist); ok {
			if name == "server.fuse_window_us" {
				v *= 1e6
			}
			res.set(name, v)
		}
	}
	res.set("server.rejected", after["neurocard_coalesce_rejected_total"]-before["neurocard_coalesce_rejected_total"])
	res.set("server.fallbacks", after["neurocard_fallback_total"]-before["neurocard_fallback_total"])
	res.set("server.inflight_peak", after["neurocard_inflight_requests_peak"])
	res.set("server.allocs_per_req", float64(mem1.Mallocs-mem0.Mallocs)/float64(est.sent+ing.sent))
	res.set("server.load_ms", ms(l.m.load))
	hits := after.family("neurocard_plan_cache_hits_total") - before.family("neurocard_plan_cache_hits_total")
	misses := after.family("neurocard_plan_cache_misses_total") - before.family("neurocard_plan_cache_misses_total")
	if hits+misses == 0 {
		return errors.New("the window looked up no plan")
	}
	res.setN("core.plan_hit_ratio", hits/(hits+misses), int(hits+misses))
	if l.w.ingest {
		if err := l.ingestSide(win); err != nil {
			return err
		}
	}

	// core, replayed in-process; then what is left of a request is not core.
	coreUs, err := l.replay(traced)
	if err != nil {
		return err
	}
	var hUs, cUs, clUs, selfUs []float64
	for _, o := range traced {
		h := handler[o.seq]
		c, replayed := coreUs[o.key]
		if !replayed {
			continue
		}
		hUs, cUs, clUs = append(hUs, us(h.dur())), append(cUs, c), append(clUs, us(o.end-o.start))
		selfUs = append(selfUs, us(h.dur())-c)
	}
	sort.Float64s(selfUs)
	if err := res.pct("server.self_p50_us", selfUs, 0.50, l.cfg.minTail); err != nil {
		return err
	}
	res.setN("ledger.non_core_frac", (mean(hUs)-mean(cUs))/mean(clUs), len(hUs))

	if err := l.scripted(); err != nil {
		return err
	}
	own := "core.est_us_f64"
	pass := "made.pass_us_f64"
	if l.w.precision == core.PrecisionFloat32 {
		own, pass = "core.est_us_f32", "made.pass_us_f32"
	}
	res.set("ledger.core_over_made", res.metrics[own]/res.metrics[pass])

	return writeTrace(l.o.tracePath, traceFile{Env: l.o.env, Metrics: res.metrics, Spans: spans})
}

// lateness reports how late the open-loop generators ran.
func (l *layerRun) lateness(p phaseResult) error {
	ops, due, rate := p.est, p.due, l.cfg.probeRate
	if l.w.ingest {
		ops, rate = p.ing, l.cfg.ingestRate
		for _, o := range ops {
			due = append(due, o.due)
		}
	}
	if due == nil {
		return nil
	}
	late := make([]float64, len(ops))
	for i, o := range ops {
		late[i] = o.lateMs()
	}
	sort.Float64s(late)
	bl := 0
	for _, b := range backlog(ops, due) {
		bl = max(bl, b)
	}
	l.res.set("loadgen.backlog_max", float64(bl))
	if backlogGrowing(ops, rate) {
		l.res.problem("open loop: the backlog was still growing when the window ended")
	}
	// Few ingest batches fit a window; their lateness takes the tail it has.
	return l.res.pct("loadgen.late_p95_ms", late, 0.95, min(l.cfg.minTail, len(late)/20))
}

// ingestSide reports what the writer and the refresher saw.
func (l *layerRun) ingestSide(p phaseResult) error {
	res := l.res
	ack := okLatencies(p.ing)
	if err := res.pct("server.ingest_ack_p50_ms", ack, 0.50, min(l.cfg.minTail, len(ack)/20)); err != nil {
		return err
	}
	if err := res.pct("server.ingest_ack_p95_ms", ack, 0.95, min(l.cfg.minTail, len(ack)/20)); err != nil {
		return err
	}
	if len(p.refreshes) == 0 {
		return errors.New("no refresh ran in the window")
	}
	var wall []float64
	gap := 0.0
	for _, r := range p.refreshes {
		wall = append(wall, ms(r.end-r.start))
		for _, o := range p.est {
			if o.start < r.end && o.end > r.start {
				gap = max(gap, o.latencyMs())
			}
		}
	}
	res.setN("server.refresh_ms", median(wall), len(wall))
	res.set("server.swap_gap_ms", gap)
	return nil
}

// timeLoop calls fn until budget seconds have passed, three times at least,
// and returns the mean time of a call.
func timeLoop(budget float64, fn func()) time.Duration {
	fn() // first call pays for lazy set-up
	start := time.Now()
	n := 0
	for n < 3 || time.Since(start).Seconds() < budget {
		fn()
		n++
	}
	return time.Since(start) / time.Duration(n)
}

// replay runs a strided sample of the distinct requests the traced slices sent in-process on fresh copies of the served checkpoint, one per precision,
// and returns the core time in microseconds of each sampled request, keyed
// like op.key.
func (l *layerRun) replay(sent []op) (map[int]float64, error) {
	res, cfg := l.res, l.cfg
	ckpt := filepath.Join(l.m.dir, modelName+".ckpt")
	copies := map[core.Precision]*core.Estimator{}
	for _, prec := range []core.Precision{core.PrecisionFloat64, core.PrecisionFloat32} {
		f, err := os.Open(ckpt)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		e, err := core.LoadCheckpoint(f)
		res.set("core.ckpt_load_ms", ms(time.Since(t0)))
		f.Close()
		if err != nil {
			return nil, err
		}
		if err := e.SetPrecision(prec); err != nil {
			return nil, err
		}
		copies[prec] = e
	}

	group := 1
	if l.w.binary {
		group = cfg.batchQueries
	}
	var distinct []int
	seen := map[int]bool{}
	for _, o := range sent {
		if !seen[o.key] {
			seen[o.key] = true
			distinct = append(distinct, o.key)
		}
	}
	sample := min(max(1, cfg.replayReqs/group), len(distinct))
	var keys, starts []int // request k of the sample is qs[starts[k]:starts[k+1]]
	var qs []query.Query
	for k := 0; k < sample; k++ {
		key := distinct[k*len(distinct)/sample]
		keys, starts = append(keys, key), append(starts, len(qs))
		for _, q := range frame(l.qs, key, group) {
			qs = append(qs, q.q)
		}
	}
	starts = append(starts, len(qs))
	// pass estimates every query reps times in a row and returns the time of
	// each query's first and last estimate.
	pass := func(e *core.Estimator, reps int) (first, last []float64, err error) {
		first, last = make([]float64, len(qs)), make([]float64, len(qs))
		for i, q := range qs {
			for r := 0; r < reps; r++ {
				t0 := time.Now()
				if _, err := e.EstimateIndexedSerial(q, int64(i)); err != nil {
					return nil, nil, err
				}
				last[i] = us(time.Since(t0))
				if r == 0 {
					first[i] = last[i]
				}
			}
		}
		return first, last, nil
	}
	var perQuery []float64
	for prec, name := range map[core.Precision]string{core.PrecisionFloat64: "core.est_us_f64", core.PrecisionFloat32: "core.est_us_f32"} {
		// A fresh copy compiles a query's plan on its first estimate and finds
		// it cached on the second, a millisecond later on the same machine.
		cold, again, err := pass(copies[prec], 2)
		if err != nil {
			return nil, err
		}
		var mem0, mem1 runtime.MemStats
		runtime.ReadMemStats(&mem0)
		each, _, err := pass(copies[prec], 1)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&mem1)
		res.setN(name, mean(each), len(qs))
		if prec == l.w.precision {
			perQuery = each
			compile := make([]float64, len(qs))
			for i := range compile {
				compile[i] = cold[i] - again[i]
			}
			res.setN("core.plan_compile_us", median(compile), len(compile))
			res.set("core.allocs_per_est", float64(mem1.Mallocs-mem0.Mallocs)/float64(len(qs)))
		}
	}

	own := copies[l.w.precision]
	nproc := runtime.GOMAXPROCS(0)
	coreUs := make(map[int]float64, len(keys))
	for k, key := range keys {
		if group == 1 {
			coreUs[key] = perQuery[k]
			continue
		}
		// A batch request's core time is what the handler would spend in
		// EstimateItems on it, with the server's worker count.
		items := make([]core.BatchItem, 0, group)
		for _, q := range qs[starts[k]:starts[k+1]] {
			items = append(items, core.BatchItem{Query: q, Seed: cfg.coreSeed, Idx: int64(len(items))})
		}
		coreUs[key] = us(timeLoop(0, func() { own.EstimateItems(items, nproc) }))
	}

	items := make([]core.BatchItem, 64)
	for i := range items {
		items[i] = core.BatchItem{Query: qs[i%len(qs)], Seed: cfg.coreSeed, Idx: int64(i)}
	}
	w1 := timeLoop(cfg.layerBudget, func() { own.EstimateItems(items, 1) })
	wN := timeLoop(cfg.layerBudget, func() { own.EstimateItems(items, nproc) })
	res.set("core.items_qps_w1", float64(len(items))/w1.Seconds())
	res.set("core.items_qps_wN", float64(len(items))/wN.Seconds())
	res.set("core.items_scaling", w1.Seconds()/wN.Seconds())
	return coreUs, nil
}

var sink float32 // keeps the compiler from dropping a timed call's result

// scripted calls made, nn, sampler, query, ingest and the server's codecs
// directly, at the pinned model's shapes.
func (l *layerRun) scripted() error {
	res, cfg, m := l.res, l.cfg, l.m
	budget := cfg.layerBudget
	res.set("core.build_ms", ms(m.build))
	res.set("core.train_tuples_per_s", float64(cfg.trainTuples)/m.train.Seconds())
	res.set("core.ckpt_write_ms", ms(m.ckptWrite))
	res.set("core.ckpt_bytes", float64(m.ckptBytes))

	// made: one progressive-sampling pass, as core drives a session.
	model := m.est.Model()
	rows, n := cfg.psamples, model.NumCols()
	p64, c64, r64 := madePass(model.NewInferSession(rows), model, rows, budget)
	p32, c32, _ := madePass(model.NewInferSession32(rows), model, rows, budget)
	res.set("made.pass_us_f64", us(p64))
	res.set("made.pass_us_f32", us(p32))
	res.set("made.probs_ns_col_f64", float64(c64))
	res.set("made.probs_ns_col_f32", float64(c32))
	res.set("made.replicate_ns", float64(r64))
	res.set("made.params", float64(model.NumParams()))
	fresh, err := made.New(model.Config(), model.Domains()) // a train step changes weights: not the served model's
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	batch := make([][]int32, cfg.batchSize)
	for i := range batch {
		batch[i] = make([]int32, n)
		for c := range batch[i] {
			batch[i][c] = int32(rng.Intn(model.DomainSize(c)))
		}
	}
	ts := fresh.NewTrainSession(cfg.batchSize)
	res.set("made.train_step_ms", ms(timeLoop(budget, func() { ts.Step(batch, cfg.wildcard) })))

	// nn: the kernels a pass is made of, at 128 rows x hidden 64 and the
	// widest column domain, run inline as a serving worker runs them.
	res.set("nn.ref_matmul_per_s", l.o.refMatmul)
	h, maxDom, sumDom := cfg.model.Hidden, 0, 0
	for c := 0; c < n; c++ {
		maxDom = max(maxDom, model.DomainSize(c))
		sumDom += model.DomainSize(c)
	}
	a, b, dst := randMat(rng, rows, h), randMat(rng, h, h), nn.NewMat(rows, h)
	a32, b32, dst32 := nn.Convert32(a), nn.ConvertT32(b), nn.NewMat32(rows, h)
	flops := 2 * float64(rows) * float64(h) * float64(h)
	res.set("nn.matmulcols_f64_gflops", flops/timeLoop(budget, func() { nn.MatMulColsG(nn.Serial, dst, a, b, h, 0, h) }).Seconds()/1e9)
	res.set("nn.matmulcolsbt_f32_gflops", flops/timeLoop(budget, func() { nn.MatMulColsBT32(nn.Serial, dst32, a32, b32, h, 0, h) }).Seconds()/1e9)
	logits, probs := randMat(rng, rows, maxDom), nn.NewMat(rows, maxDom)
	logits32, probs32 := nn.Convert32(logits), nn.NewMat32(rows, maxDom)
	res.set("nn.softmax_f64_ns_row", float64(timeLoop(budget, func() { nn.SoftmaxRowsG(nn.Serial, probs, logits) }))/float64(rows))
	res.set("nn.softmax_f32_ns_row", float64(timeLoop(budget, func() { nn.SoftmaxRowsG(nn.Serial, probs32, logits32) }))/float64(rows))
	x, y := a32.Row(0), make([]float32, h)
	const reps = 4096
	res.set("nn.dot32_gflops", 2*float64(h)*reps/timeLoop(budget, func() {
		for i := 0; i < reps; i++ {
			sink += nn.Dot32(x, y)
		}
	}).Seconds()/1e9)
	res.set("nn.axpy32_gflops", 2*float64(h)*reps/timeLoop(budget, func() {
		for i := 0; i < reps; i++ {
			nn.Axpy32(1e-9, x, y)
		}
	}).Seconds()/1e9)
	// Computed from the shapes, as a dense upper bound (the sorted-degree
	// masks let a session skip about half of each trunk product): per pass,
	// two masked H x H linears per block, and per column a H x E head
	// projection and an E x D_c product against the embeddings.
	e, trunk := cfg.model.EmbedDim, 2*cfg.model.Blocks*h*h
	heads := n*h*e + e*sumDom
	width := 8
	if l.w.precision == core.PrecisionFloat32 {
		width = 4
	}
	res.set("nn.flops_per_pass", 2*float64(rows)*float64(trunk+heads))
	res.set("nn.weight_bytes_touched_per_pass", float64(width*(trunk+heads+sumDom)))

	// sampler, on the pristine data and on the data plus the held-back rows.
	var smp *sampler.Sampler
	res.set("sampler.build_ms", ms(timeLoop(budget, func() { smp, err = sampler.New(m.d.Schema) })))
	if err != nil {
		return err
	}
	out := make([][]int32, 4096)
	for i := range out {
		out[i] = make([]int32, len(smp.Tables()))
	}
	res.set("sampler.tuples_per_s", float64(len(out))/timeLoop(budget, func() { smp.SampleBatchInto(rng, out) }).Seconds())
	merged, err := ingest.Apply(m.d.Schema, l.plan)
	if err != nil {
		return err
	}
	res.set("sampler.append_ms", ms(timeLoop(budget, func() { _, err = sampler.NewAppended(smp, merged) })))
	if err != nil {
		return err
	}
	clone, err := l.loadOriginal()
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := clone.UpdateDataAppend(merged); err != nil {
		return err
	}
	res.set("core.update_append_ms", ms(time.Since(t0)))

	// query: the canonical key is the plan-cache key and the NCB wire form.
	var key []byte
	res.set("query.key_ns", float64(timeLoop(budget, func() {
		for i := range l.qs {
			key = l.qs[i].q.AppendKey(key[:0])
		}
	}))/float64(len(l.qs)))
	var keys [][]byte
	for i := range l.qs {
		keys = append(keys, l.qs[i].q.AppendKey(nil))
	}
	res.set("query.decode_key_ns", float64(timeLoop(budget, func() {
		for _, k := range keys {
			_, _, err = query.DecodeKey(k)
		}
	}))/float64(len(keys)))
	if err != nil {
		return err
	}

	// server codecs, on one request of the workload's shape.
	group := 1
	if l.w.binary {
		group = cfg.batchQueries
	}
	one := l.qs[:group]
	jreq, err := encodeRequest(one, false, nil)
	if err != nil {
		return err
	}
	breq, err := encodeRequest(one, true, nil)
	if err != nil {
		return err
	}
	res.set("server.decode_json_us", us(timeLoop(budget, func() {
		var er server.EstimateRequest
		if err = json.Unmarshal(jreq.body, &er); err != nil {
			return
		}
		wire := er.Queries
		if er.Query != nil {
			wire = []server.QueryJSON{*er.Query}
		}
		for _, qj := range wire {
			if _, err = server.DecodeQuery(qj); err != nil {
				return
			}
		}
	})))
	if err != nil {
		return err
	}
	res.set("server.decode_bin_us", us(timeLoop(budget, func() { _, err = server.DecodeBinRequest(breq.body) })))
	if err != nil {
		return err
	}
	ests, buf := make([]float64, group), []byte(nil)
	res.set("server.encode_bin_us", us(timeLoop(budget, func() { buf = server.AppendBinResponse(buf[:0], modelName, ests, nil, false) })))

	// ingest: the journal alone, fsync included, then its replay.
	dir := filepath.Join(l.o.outDir, "journal-pass")
	j, _, err := ingest.Open(dir, ingest.Options{})
	if err != nil {
		return err
	}
	i := 0
	res.set("ingest.append_us", us(timeLoop(budget, func() {
		_, err = j.Append(l.plan[i%len(l.plan)])
		i++
	})))
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	t0 = time.Now()
	j, _, err = ingest.Open(dir, ingest.Options{})
	if err != nil {
		return err
	}
	res.set("ingest.replay_ms", ms(time.Since(t0)))
	if err := j.Close(); err != nil {
		return err
	}
	res.set("ingest.encode_ns", float64(timeLoop(budget, func() { buf = ingest.EncodeBatch(buf[:0], l.plan[0]) })))
	res.set("ingest.bytes_per_row", float64(len(buf))/float64(l.plan[0].NumRows()))
	return nil
}

// loadOriginal restores a private copy of the trained estimator, by way of a
// checkpoint of its own so that a refreshed serving checkpoint is not read.
func (l *layerRun) loadOriginal() (*core.Estimator, error) {
	path := filepath.Join(l.o.outDir, "original.ckpt")
	if err := core.WriteCheckpointFile(l.m.est, path); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.LoadCheckpoint(f)
}

// madePass times the progressive pass core.sample drives a session through:
// one row until the first draw, replicated to rows, then a conditional and a
// token per column. It returns the pass, one Probs call, and Replicate.
func madePass[T nn.Elem](s *made.InferSessionOf[T], model *made.Model, rows int, budget float64) (pass, probs, replicate time.Duration) {
	s.SetSerial(true)
	n := model.NumCols()
	var inProbs, inRepl time.Duration
	calls := 0
	pass = timeLoop(budget, func() {
		s.Reset(1)
		t := time.Now()
		s.Probs(0)
		inProbs += time.Since(t)
		t = time.Now()
		s.Replicate(rows)
		inRepl += time.Since(t)
		for c := 0; c < n; c++ {
			t = time.Now()
			s.Probs(c)
			inProbs += time.Since(t)
			dom := model.DomainSize(c)
			for r := 0; r < rows; r++ {
				s.SetToken(r, c, int32((r*7+c)%dom))
			}
		}
		calls++
	})
	return pass, inProbs / time.Duration(calls*(n+1)), inRepl / time.Duration(calls)
}

func randMat(rng *rand.Rand, rows, cols int) *nn.Mat {
	m := nn.NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float64() - 0.5
	}
	return m
}

// refMatmul is the machine calibration recorded with every result: dense
// 128^3 products per second on the kernels the estimator runs on (the
// harness's RefScore, so the two ledgers share a unit).
func refMatmul() float64 {
	const dim = 128
	rng := rand.New(rand.NewSource(1))
	a, b, c := randMat(rng, dim, dim), randMat(rng, dim, dim), nn.NewMat(dim, dim)
	timeLoop(0.1, func() { nn.MatMul(c, a, b) }) // a process that has just started runs slow
	return 1 / timeLoop(0.2, func() { nn.MatMul(c, a, b) }).Seconds()
}
