package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"neurocard/internal/core"
	"neurocard/internal/query"
)

// Every POST /v1/estimate runs one pipeline whatever its size, wire format,
// or target: decode (JSON or NCB), resolve (one route per query), execute
// (each part through the fault ladder), encode (one reply per wire format).
// A physical model's route is the identity route — the query itself on that
// one entry, factor 1 — so it is the one-shard case of a logical model and,
// since 1 × est == est, serves exactly what the model estimates (DESIGN.md
// §2.3, §2.6, §2.7).

// Fault-ladder sentinel errors, mapped onto HTTP statuses by estimateStatus.
var (
	// errNonFinite reports an estimate that failed the finiteness check —
	// an internal model error, not a caller mistake.
	errNonFinite = errors.New("server: non-finite estimate")
	// errBreakerOpen reports an item short-circuited by an open model
	// circuit with no fallback estimator to absorb it.
	errBreakerOpen = errors.New("server: model circuit open and no fallback estimator configured")
	// errShardMissing marks an estimate that needed a shard model the
	// registry no longer holds (unloaded out from under its logical model).
	// 503: the query is fine, the fleet is not.
	errShardMissing = errors.New("server: shard model not loaded")
)

// estimateReq is a decoded estimate request. single is set for a JSON
// "query" or a one-query NCB frame: it answers one estimate, a failure with
// its HTTP status.
type estimateReq struct {
	model   string
	seed    *int64
	single  bool
	queries []query.Query
}

// part is one sub-estimate of a route: a query on one serving entry.
type part struct {
	qi    int         // index of the request query it belongs to
	shard string      // logical routes only: names the shard in errors
	entry *Entry      // nil when the shard is not loaded
	q     query.Query // the (sub-)query the entry estimates
}

// route is one query's resolution: its estimate is factor × the estimates of
// parts[lo:hi], multiplied in that (plan) order.
type route struct {
	factor float64
	lo, hi int
	err    error // planning failure
}

// resolved is a request's routing: the model name it answers under, one
// route per query, and the flat list of parts the routes index.
type resolved struct {
	name    string
	logical bool
	routes  []route
	parts   []part
}

// outcome is one part's result after the fault ladder.
type outcome struct {
	est      float64
	degraded bool // served by the entry's fallback estimator
	err      error
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	done := s.metrics.requestStart()
	var buf *[]byte // NCB scratch: holds the body, then the reply
	if strings.HasPrefix(r.Header.Get("Content-Type"), ContentTypeBinary) {
		s.metrics.binaryTotal.Add(1)
		buf = wireBufPool.Get().(*[]byte)
		defer func() {
			*buf = (*buf)[:0]
			wireBufPool.Put(buf)
		}()
	}
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		s.estimateFailed(w, done, http.StatusBadRequest, err)
		return
	}
	if cancel != nil {
		defer cancel()
	}
	req, err := s.decodeEstimate(w, r, buf)
	if err != nil {
		s.estimateFailed(w, done, http.StatusBadRequest, err)
		return
	}
	rs, err := s.resolve(req.model, req.queries)
	if err != nil {
		s.estimateFailed(w, done, http.StatusNotFound, err)
		return
	}

	start := time.Now()
	outs := s.execute(ctx, req, rs)
	ests := make([]float64, len(req.queries))
	var errs []string // nil unless some query failed
	nOK, degraded := 0, false
	for i, rt := range rs.routes {
		est, deg, err := s.combine(rt, rs.parts, outs)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				s.metrics.timeoutsTotal.Add(1)
			}
			if req.single {
				s.estimateFailed(w, done, estimateStatus(err), err)
				return
			}
			if errs == nil {
				errs = make([]string, len(ests))
			}
			errs[i] = err.Error()
			continue
		}
		ests[i] = est
		degraded = degraded || deg
		nOK++
	}
	if rs.logical {
		s.metrics.logicalQueries.Add(int64(nOK))
	}
	if buf != nil {
		s.replyBin(w, buf, rs.name, ests, errs, degraded)
	} else {
		resp := EstimateResponse{
			Model:    rs.name,
			Ests:     ests,
			Errors:   errs,
			Degraded: degraded,
			Count:    len(ests),
			Micros:   time.Since(start).Microseconds(),
		}
		if req.single {
			resp.Est, resp.Ests = &ests[0], nil
		}
		s.reply(w, http.StatusOK, resp)
	}
	done(nOK, errs != nil)
}

// estimateFailed answers a whole estimate request with an error status. 429
// and 503 are transient — the queue, the breaker, or the fleet — so they
// carry Retry-After.
func (s *Server) estimateFailed(w http.ResponseWriter, done func(int, bool), status int, err error) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	s.fail(w, status, err)
	done(0, true)
}

// requestContext derives the request's estimate budget: the server-wide
// RequestTimeout, optionally tightened (never loosened) by the client's
// X-Deadline-Ms header. The returned context also inherits client-disconnect
// cancellation from the http.Request.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	timeout := s.cfg.RequestTimeout
	if h := r.Header.Get("X-Deadline-Ms"); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			return nil, nil, fmt.Errorf("invalid X-Deadline-Ms header %q (want a positive integer)", h)
		}
		if d := time.Duration(ms) * time.Millisecond; timeout == 0 || d < timeout {
			timeout = d
		}
	}
	if timeout <= 0 {
		return r.Context(), nil, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	return ctx, cancel, nil
}

// decodeEstimate reads an estimate request: an NCB frame into the pooled
// scratch buffer when buf is non-nil, JSON otherwise.
func (s *Server) decodeEstimate(w http.ResponseWriter, r *http.Request, buf *[]byte) (estimateReq, error) {
	var req estimateReq
	if buf != nil {
		body, err := s.readBinBody(w, r, (*buf)[:0])
		*buf = body
		if err != nil {
			return req, err
		}
		breq, err := DecodeBinRequest(body)
		if err != nil {
			return req, err
		}
		req = estimateReq{model: breq.Model, seed: breq.Seed, single: len(breq.Queries) == 1, queries: breq.Queries}
	} else {
		var jr EstimateRequest
		if err := s.decodeBody(w, r, &jr); err != nil {
			return req, err
		}
		req = estimateReq{model: jr.Model, seed: jr.Seed, single: jr.Query != nil}
		if req.single == (len(jr.Queries) > 0) {
			return req, errors.New("exactly one of \"query\" or \"queries\" must be set")
		}
		qs := jr.Queries
		if req.single {
			qs = []QueryJSON{*jr.Query}
		}
		req.queries = make([]query.Query, len(qs))
		for i := range qs {
			q, err := DecodeQuery(qs[i])
			if err != nil {
				return req, fmt.Errorf("query %d: %w", i, err)
			}
			req.queries[i] = q
		}
	}
	if len(req.queries) > s.cfg.MaxBatch {
		return req, fmt.Errorf("batch of %d queries exceeds limit %d", len(req.queries), s.cfg.MaxBatch)
	}
	return req, nil
}

// resolve routes every query. A logical name splits each query through its
// manifest's planner, resolving every shard entry once per request, so all
// of one request's sub-queries on a shard see one generation. A physical
// name gives every query the identity route on the one entry it resolves to.
func (s *Server) resolve(name string, queries []query.Query) (*resolved, error) {
	lg := s.reg.GetLogical(name)
	if lg == nil {
		e, err := s.reg.Get(name)
		if err != nil {
			return nil, err
		}
		rs := &resolved{name: e.Name, routes: make([]route, len(queries)), parts: make([]part, len(queries))}
		for i, q := range queries {
			rs.routes[i] = route{factor: 1, lo: i, hi: i + 1}
			rs.parts[i] = part{qi: i, entry: e, q: q}
		}
		return rs, nil
	}
	rs := &resolved{name: lg.Name, logical: true, routes: make([]route, len(queries))}
	shards := make(map[string]*Entry)
	for i, q := range queries {
		pl, err := lg.Planner.Plan(q)
		if err != nil {
			rs.routes[i].err = err
			continue
		}
		rs.routes[i] = route{factor: pl.Factor, lo: len(rs.parts), hi: len(rs.parts) + len(pl.Subs)}
		for _, sub := range pl.Subs {
			e, ok := shards[sub.Shard]
			if !ok {
				e, _ = s.reg.Get(sub.Shard) // nil when not loaded
				shards[sub.Shard] = e
			}
			s.metrics.routeToShard(lg.Name, sub.Shard, 1)
			rs.parts = append(rs.parts, part{qi: i, shard: sub.Shard, entry: e, q: sub.Query})
		}
	}
	return rs, nil
}

// execute runs every part, grouped per shard entry, through the fault ladder
// and returns the outcomes aligned with rs.parts. Randomness is per item and
// independent of grouping: a seeded single draws (seed, 0), an unseeded one
// an independent sample, and batch query i draws (seed or config seed, i) on
// every shard it touches.
func (s *Server) execute(ctx context.Context, req estimateReq, rs *resolved) []outcome {
	outs := make([]outcome, len(rs.parts))
	type group struct {
		e     *Entry
		parts []int
	}
	var groups []group
	failed := false
	for pi, p := range rs.parts {
		if p.entry == nil {
			outs[pi].err = errShardMissing
			failed = true
			continue
		}
		g := 0
		for g < len(groups) && groups[g].e != p.entry {
			g++
		}
		if g == len(groups) {
			groups = append(groups, group{e: p.entry})
		}
		groups[g].parts = append(groups[g].parts, pi)
	}
	for _, g := range groups {
		if req.single && failed {
			break // one failed part fails a single: its other parts need not run
		}
		base := g.e.Est.Config().Seed
		if req.seed != nil {
			base = *req.seed
		}
		items := make([]core.BatchItem, len(g.parts))
		for j, pi := range g.parts {
			p := &rs.parts[pi]
			items[j] = core.BatchItem{Query: p.q, Seed: base, Idx: int64(p.qi), Auto: req.single && req.seed == nil, Ctx: ctx}
		}
		for j, o := range s.ladder(g.e, items, req.single) {
			outs[g.parts[j]] = o
			failed = failed || o.err != nil
		}
	}
	return outs
}

// ladder runs items on one entry through the fault ladder, item by item:
// the breaker admits the item, or the fallback answers it (without one, the
// item fails errBreakerOpen); the model estimates every admitted item; the
// sanity guard rejects anything but a finite positive estimate; the outcome
// feeds the breaker — panics, non-finite estimates, and deadline expiries
// count as model faults, caller mistakes and backpressure do not; and a
// model fault other than a deadline expiry (the client's budget is spent, so
// it answers 504) is masked by the fallback when one exists.
func (s *Server) ladder(e *Entry, items []core.BatchItem, onLanes bool) []outcome {
	out := make([]outcome, len(items))
	admitted := make([]int, 0, len(items))
	for i := range items {
		switch {
		case e.Breaker == nil || e.Breaker.allow():
			admitted = append(admitted, i)
		case e.Fallback == nil:
			out[i].err = errBreakerOpen
		default:
			out[i] = s.fallback(e, items[i].Query)
		}
	}
	if len(admitted) == 0 {
		return out
	}
	run := items
	if len(admitted) < len(items) {
		run = make([]core.BatchItem, len(admitted))
		for j, i := range admitted {
			run[j] = items[i]
		}
	}
	ests, errs := s.estimate(e, run, onLanes)
	for j, i := range admitted {
		est, err := ests[j], errs[j]
		if err == nil {
			err = s.sane(est, "")
		}
		fault := modelFault(err)
		if e.Breaker != nil && (fault || err == nil) {
			e.Breaker.record(fault)
		}
		out[i] = outcome{est: est, err: err}
		if fault && e.Fallback != nil && !errors.Is(err, context.DeadlineExceeded) {
			if fb := s.fallback(e, items[i].Query); fb.err == nil {
				out[i] = fb
			}
		}
	}
	return out
}

// estimate runs items on the entry's model: a single's on the estimate
// lanes, a batch's in one EstimateItems call (which never touches a lane, so
// batches stay off the lane histograms).
func (s *Server) estimate(e *Entry, items []core.BatchItem, onLanes bool) ([]float64, []error) {
	if !onLanes {
		return e.Est.EstimateItems(items, s.estimateWorkers(len(items)))
	}
	ests, errs := make([]float64, len(items)), make([]error, len(items))
	for i, it := range items {
		ests[i], errs[i] = s.laneEstimate(e, it)
	}
	return ests, errs
}

// fallback answers one query from the entry's histogram shadow estimator,
// applying the same sanity guard as the model path.
func (s *Server) fallback(e *Entry, q query.Query) outcome {
	est, err := e.Fallback.Estimate(q)
	if err == nil {
		err = s.sane(est, " (fallback)")
	}
	if err != nil {
		return outcome{err: err}
	}
	s.metrics.fallbackTotal.Add(1)
	return outcome{est: est, degraded: true}
}

// combine multiplies one route's part estimates, in plan order, by its
// factor; the first failing part fails the query, naming its shard on a
// logical route.
func (s *Server) combine(rt route, parts []part, outs []outcome) (est float64, degraded bool, err error) {
	if rt.err != nil {
		return 0, false, rt.err
	}
	est = rt.factor
	for pi := rt.lo; pi < rt.hi; pi++ {
		o := outs[pi]
		if o.err != nil {
			if parts[pi].shard != "" {
				return 0, false, fmt.Errorf("shard %q: %w", parts[pi].shard, o.err)
			}
			return 0, false, o.err
		}
		est *= o.est
		degraded = degraded || o.degraded
	}
	if err := s.sane(est, " (combined)"); err != nil {
		return 0, false, err
	}
	return est, degraded, nil
}

// sane is the estimate sanity guard: anything but a finite positive estimate
// is an internal error and must never be served as a cardinality.
func (s *Server) sane(est float64, what string) error {
	if !math.IsNaN(est) && !math.IsInf(est, 0) && est > 0 {
		return nil
	}
	s.metrics.nonfiniteTotal.Add(1)
	return fmt.Errorf("%w %g%s", errNonFinite, est, what)
}

// modelFault reports whether an estimate error indicts the model itself —
// the outcomes that feed the circuit breaker. Caller mistakes (bad queries),
// backpressure, shutdown, and client disconnects do not.
func modelFault(err error) bool {
	return errors.Is(err, core.ErrEstimatePanic) ||
		errors.Is(err, errNonFinite) ||
		errors.Is(err, context.DeadlineExceeded)
}

// estimateStatus maps a single-query estimate error onto its HTTP status.
func estimateStatus(err error) int {
	switch {
	case errors.Is(err, errSaturated):
		return http.StatusTooManyRequests
	case errors.Is(err, errClosing), errors.Is(err, errBreakerOpen), errors.Is(err, errShardMissing):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, errNonFinite), errors.Is(err, core.ErrEstimatePanic):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}
