package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	hist "neurocard/internal/baselines/histogram"
	"neurocard/internal/core"
	"neurocard/internal/query"
	"neurocard/internal/value"
)

// Config tunes the serving daemon.
type Config struct {
	// ModelsDir is where relative model names resolve to checkpoint files
	// (<dir>/<name>.ckpt).
	ModelsDir string

	// Workers bounds the concurrency of one batch estimate and is the number
	// of estimate lanes serving single-query requests (≤0 or more than
	// GOMAXPROCS = GOMAXPROCS).
	Workers int

	// MaxBatch caps queries per estimate request (default 1024).
	MaxBatch int

	// MaxBodyBytes caps request body sizes (default 8 MiB).
	MaxBodyBytes int64

	// FuseQueue bounds the single-query requests waiting for an estimate
	// lane, server-wide; a full queue answers 429 + Retry-After (default
	// 1024).
	FuseQueue int

	// RequestTimeout bounds each estimate request end to end, including
	// lane queueing and sampling (0 = unbounded). Clients may tighten —
	// never loosen — their own budget with an X-Deadline-Ms header; expiry
	// answers 504 and increments neurocard_request_timeouts_total.
	RequestTimeout time.Duration

	// Breaker* tune the per-model circuit breaker. A negative
	// BreakerThreshold disables breakers entirely; zero values select the
	// defaults (window 20, min samples 10, threshold 0.5, cooldown 1s,
	// probes 3).
	BreakerWindow     int
	BreakerMinSamples int
	BreakerThreshold  float64
	BreakerCooldown   time.Duration
	BreakerProbes     int

	// NoFallback disables the per-model histogram shadow estimator; an open
	// breaker then fails the items it denies (a single answers 503).
	NoFallback bool

	// DefaultPrecision is the serving precision applied to model loads that
	// name none themselves (the daemon's -precision flag). Empty keeps each
	// checkpoint's stored precision. Per-load overrides come through
	// LoadRequest.Precision.
	DefaultPrecision core.Precision

	// SLOLatencyP99 is the p99 request-latency target exported on /metrics
	// as the SLO gauges (default 25ms).
	SLOLatencyP99 time.Duration

	// JournalDir is the root of the per-model write-ahead row journals
	// (<dir>/<model>/journal-*.seg). Empty disables ingest: the ingest
	// endpoint answers 503, because rows cannot be made durable.
	JournalDir string

	// MaxStaleness bounds how long an acknowledged row may wait for a model
	// refresh before /readyz reports the instance degraded (the -max-staleness
	// flag). 0 disables staleness gating.
	MaxStaleness time.Duration
}

// Server is the HTTP serving layer: a registry of loaded estimators plus the
// JSON and binary APIs. Create with New, mount Handler on any http.Server,
// and Close it on shutdown to stop the estimate-lane goroutines.
type Server struct {
	cfg     Config
	reg     *Registry
	metrics *metrics
	mux     *http.ServeMux

	queue     chan *pendingEstimate // single-query requests waiting for a lane
	lanes     int                   // lane goroutines draining queue
	laneWG    sync.WaitGroup        // Close waits for the lanes to exit
	lanesBusy atomic.Int64          // lanes running an estimate right now
	ingests   sync.Map              // model name → *ingestState
	closing   chan struct{}
	closeOnce sync.Once
}

// New creates a server with an empty registry and starts its estimate lanes.
func New(cfg Config) *Server {
	s := newServer(cfg)
	s.startLanes()
	return s
}

// newServer builds the server without starting the lanes: single-query
// requests queue and nothing drains them — the state tests use to hold
// requests in the queue deterministically.
func newServer(cfg Config) *Server {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1024
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.FuseQueue <= 0 {
		cfg.FuseQueue = 1024
	}
	if cfg.SLOLatencyP99 <= 0 {
		cfg.SLOLatencyP99 = 25 * time.Millisecond
	}
	s := &Server{
		cfg:     cfg,
		reg:     NewRegistry(cfg.ModelsDir),
		metrics: newMetrics(cfg.SLOLatencyP99),
		mux:     http.NewServeMux(),
		queue:   make(chan *pendingEstimate, cfg.FuseQueue),
		closing: make(chan struct{}),
	}
	s.reg.defaultPrecision = cfg.DefaultPrecision
	if cfg.BreakerThreshold >= 0 {
		bc := breakerConfig{
			Window:     cfg.BreakerWindow,
			MinSamples: cfg.BreakerMinSamples,
			Threshold:  cfg.BreakerThreshold,
			Cooldown:   cfg.BreakerCooldown,
			Probes:     cfg.BreakerProbes,
		}
		s.reg.newBreaker = func() *breaker { return newBreaker(bc) }
	}
	if !cfg.NoFallback {
		s.reg.newFallback = func(est *core.Estimator) *hist.Estimator {
			sch := est.Schema()
			if sch == nil {
				return nil
			}
			return hist.New(sch, hist.DefaultConfig())
		}
	}
	s.mux.HandleFunc("POST /v1/estimate", s.handleEstimate)
	s.mux.HandleFunc("GET /v1/models", s.handleModels)
	s.mux.HandleFunc("POST /v1/models/{name}/load", s.handleLoad)
	s.mux.HandleFunc("POST /v1/models/{name}/ingest", s.handleIngest)
	s.mux.HandleFunc("DELETE /v1/models/{name}", s.handleUnload)
	s.mux.HandleFunc("GET /livez", s.handleLivez)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Close fails requests caught mid-queue with 503, stops the estimate lanes
// (waiting for any estimate still running on one), and syncs + closes every
// ingest journal. Idempotent; the HTTP listener is the caller's to shut down.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.closing)
		s.laneWG.Wait()
		s.closeIngest()
	})
}

// Registry exposes the model registry (daemon preloading, tests).
func (s *Server) Registry() *Registry { return s.reg }

// Handler returns the root HTTP handler: the route mux wrapped in
// panic-recovery middleware, so a handler bug answers one request with a 500
// instead of killing its connection (or, uncaught anywhere, the process).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler { // deliberate abort, not a fault
					panic(rec)
				}
				s.metrics.panicsTotal.Add(1)
				s.fail(w, http.StatusInternalServerError, fmt.Errorf("server: internal panic: %v", rec))
			}
		}()
		s.mux.ServeHTTP(w, r)
	})
}

// ---- wire types ----

// FilterJSON is one predicate clause of an estimate request. The value
// fields depend on the op: comparison ops ("=", "!=", "<", "<=", ">", ">=")
// take exactly one of "int" or "str"; "IN" / "NOT IN" take "set";
// "BETWEEN" takes "int"+"int2" or "str"+"str2" (inclusive bounds);
// "IS NULL" / "IS NOT NULL" take no value. "or" lists disjunctive
// alternatives on the same table/column — the clause matches when its own
// predicate or any alternative matches; alternatives cannot nest further.
type FilterJSON struct {
	Table string       `json:"table"`
	Col   string       `json:"col"`
	Op    string       `json:"op"`
	Int   *int64       `json:"int,omitempty"`
	Str   *string      `json:"str,omitempty"`
	Int2  *int64       `json:"int2,omitempty"`
	Str2  *string      `json:"str2,omitempty"`
	Set   []any        `json:"set,omitempty"`
	Or    []FilterJSON `json:"or,omitempty"`
}

// QueryJSON is a join query over connected tables plus conjunctive filters.
type QueryJSON struct {
	Tables  []string     `json:"tables"`
	Filters []FilterJSON `json:"filters,omitempty"`
}

// EstimateRequest asks for cardinality estimates. Exactly one of Query
// (single) or Queries (batch) must be set. A Seed makes results reproducible:
// query i derives its randomness from (seed, i) regardless of concurrency.
type EstimateRequest struct {
	Model   string      `json:"model,omitempty"`
	Query   *QueryJSON  `json:"query,omitempty"`
	Queries []QueryJSON `json:"queries,omitempty"`
	Seed    *int64      `json:"seed,omitempty"`
}

// EstimateResponse carries the results. Est is set for single-query
// requests, Ests for batches. A well-formed batch answers 200 even when some
// queries fail: Errors, when present, aligns positionally with Ests and
// holds "" for the queries that succeeded (their Ests entry is 0 otherwise).
type EstimateResponse struct {
	Model  string    `json:"model"`
	Est    *float64  `json:"est,omitempty"`
	Ests   []float64 `json:"ests,omitempty"`
	Errors []string  `json:"errors,omitempty"`
	// Degraded marks estimates served by the histogram fallback estimator
	// (model circuit open) rather than the neural model.
	Degraded bool  `json:"degraded,omitempty"`
	Count    int   `json:"count"`
	Micros   int64 `json:"micros"`
}

// ModelInfo describes one registry entry — a concrete model (Kind "model")
// or a logical model composed of shard entries (Kind "logical", with the
// shard names in Shards and the model-level fields zeroed).
type ModelInfo struct {
	Name       string   `json:"name"`
	Kind       string   `json:"kind"`
	Shards     []string `json:"shards,omitempty"`
	Path       string   `json:"path"`
	Default    bool     `json:"default"`
	Generation int      `json:"generation"`
	LoadedAt   string   `json:"loaded_at"`
	Tables     int      `json:"tables"`
	JoinSize   float64  `json:"join_size"`
	ModelBytes int      `json:"model_bytes"`
	// Precision is the entry's serving element width ("float64"/"float32");
	// WeightBytes the resident bytes of the weights its serving kernels read.
	Precision   string `json:"precision"`
	WeightBytes int    `json:"weight_bytes"`
	SamplesSeen int    `json:"samples_seen"`
	PSamples    int    `json:"psamples"`
}

// ModelsResponse lists loaded models.
type ModelsResponse struct {
	Models []ModelInfo `json:"models"`
}

// LoadRequest optionally overrides the checkpoint path, serving precision,
// and default flag for a model load. Precision ("float64"/"float32", empty =
// server default, failing that the checkpoint's own) is per load: reloading
// a model with a different precision hot-swaps its serving width.
type LoadRequest struct {
	Path        string `json:"path,omitempty"`
	Precision   string `json:"precision,omitempty"`
	MakeDefault bool   `json:"default,omitempty"`
	// Manifest loads <models>/<name>.manifest.json (or Path) as a logical
	// model: every shard checkpoint it lists is loaded (hot-swapping those
	// already present) and the group becomes addressable under name.
	Manifest bool `json:"manifest,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// ---- handlers ----

// modelInfo builds the wire description of a registry entry; the single
// constructor keeps the /v1/models listing and the load response consistent.
func modelInfo(e, def *Entry) ModelInfo {
	return ModelInfo{
		Name:        e.Name,
		Kind:        "model",
		Path:        e.Path,
		Default:     def != nil && def.Name == e.Name && def.Gen == e.Gen,
		Generation:  e.Gen,
		LoadedAt:    e.LoadedAt.UTC().Format(time.RFC3339Nano),
		Tables:      e.Est.NumTables(),
		JoinSize:    e.Est.JoinSize(),
		ModelBytes:  e.Est.Bytes(),
		Precision:   string(e.Est.Precision()),
		WeightBytes: e.Est.ServingWeightBytes(),
		SamplesSeen: e.Est.Model().SamplesSeen(),
		PSamples:    e.Est.Config().PSamples,
	}
}

// logicalInfo builds the wire description of a logical model.
func logicalInfo(lg *Logical) ModelInfo {
	return ModelInfo{
		Name:       lg.Name,
		Kind:       "logical",
		Shards:     lg.Man.ShardNames(),
		Path:       lg.Path,
		Generation: lg.Gen,
		LoadedAt:   lg.LoadedAt.UTC().Format(time.RFC3339Nano),
		Tables:     len(lg.Man.Tables()),
	}
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	entries, def := s.reg.List()
	logicals := s.reg.ListLogical()
	resp := ModelsResponse{Models: make([]ModelInfo, 0, len(entries)+len(logicals))}
	for _, e := range entries {
		resp.Models = append(resp.Models, modelInfo(e, def))
	}
	for _, lg := range logicals {
		resp.Models = append(resp.Models, logicalInfo(lg))
	}
	s.reply(w, http.StatusOK, resp)
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req LoadRequest
	if r.ContentLength != 0 {
		if err := s.decodeBody(w, r, &req); err != nil {
			s.fail(w, http.StatusBadRequest, err)
			return
		}
	}
	if req.Manifest {
		if req.Precision != "" || req.MakeDefault {
			s.fail(w, http.StatusBadRequest, errors.New("manifest loads take no precision or default flag; logical models are addressed by explicit name"))
			return
		}
		lg, err := s.reg.LoadLogical(name, req.Path)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, fs.ErrNotExist) {
				status = http.StatusNotFound
			}
			s.fail(w, status, err)
			return
		}
		s.metrics.loadsTotal.Add(1)
		s.reply(w, http.StatusOK, logicalInfo(lg))
		return
	}
	entry, err := s.reg.LoadPrecision(name, req.Path, core.Precision(req.Precision))
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, fs.ErrNotExist) {
			status = http.StatusNotFound
		}
		s.fail(w, status, err)
		return
	}
	if req.MakeDefault {
		if err := s.reg.SetDefault(name); err != nil {
			s.fail(w, http.StatusInternalServerError, err)
			return
		}
	}
	s.metrics.loadsTotal.Add(1)
	_, def := s.reg.List()
	s.reply(w, http.StatusOK, modelInfo(entry, def))
}

// handleUnload removes a model or logical model from serving. Requests
// already admitted — running or still queued for a lane — finish on the
// entry they were admitted with.
func (s *Server) handleUnload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.reg.Unload(name); err != nil {
		s.fail(w, http.StatusNotFound, err)
		return
	}
	s.metrics.unloadsTotal.Add(1)
	s.reply(w, http.StatusOK, struct {
		Unloaded string `json:"unloaded"`
	}{name})
}

// handleLivez is the liveness probe: the process is up and serving HTTP.
// Always 200 — restarts are for hung processes, not missing models.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	s.reply(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"alive"})
}

// handleReadyz is the readiness probe: 503 until a model is loaded (don't
// route traffic here yet), 200 otherwise — including degraded-but-serving,
// which is reported in the body for observability but keeps the instance in
// rotation, since it still answers every request (via the fallback).
//
// Degraded covers both causes — a non-closed breaker and ingest staleness
// beyond -max-staleness — with each reported in its own field so staleness
// never masks breaker state (and vice versa).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	type readiness struct {
		Status   string `json:"status"`
		Ready    bool   `json:"ready"`
		Models   int    `json:"models"`
		Degraded bool   `json:"degraded"`
		// Breakers is true when any model's circuit breaker is not closed;
		// Stale lists models whose journaled rows exceed the staleness bound.
		Breakers bool     `json:"breakers,omitempty"`
		Stale    []string `json:"stale,omitempty"`
	}
	n := s.reg.Len()
	breakers := s.degraded()
	stale := s.staleModels()
	resp := readiness{
		Status:   "ok",
		Ready:    n > 0,
		Models:   n,
		Degraded: breakers || len(stale) > 0,
		Breakers: breakers,
		Stale:    stale,
	}
	status := http.StatusOK
	if !resp.Ready {
		resp.Status = "no models loaded"
		status = http.StatusServiceUnavailable
	} else if len(stale) > 0 {
		resp.Status = fmt.Sprintf("stale: %s behind by more than %s", strings.Join(stale, ", "), s.cfg.MaxStaleness)
	}
	s.reply(w, status, resp)
}

// degraded reports whether any model's breaker is currently not closed.
func (s *Server) degraded() bool {
	entries, _ := s.reg.List()
	for _, e := range entries {
		if e.Breaker != nil && e.Breaker.currentState() != breakerClosed {
			return true
		}
	}
	return false
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Entries and retired totals come from one consistent snapshot, and the
	// per-generation stats below are read from the snapshotted entry (not a
	// fresh registry lookup), so a hot swap racing the scrape can only make
	// this read miss the very newest generation's few counts — never count
	// a generation twice. Counters stay monotone.
	entries, retired := s.reg.Snapshot()
	pools := make([]poolStat, 0, len(entries))
	for _, e := range entries {
		free, inUse := e.Est.SessionPoolStats()
		ps := poolStat{
			model:       e.Name,
			free:        free,
			inUse:       inUse,
			plans:       e.Est.PlanCacheStats(),
			precision:   string(e.Est.Precision()),
			weightBytes: e.Est.ServingWeightBytes(),
			dataGen:     e.Est.DataGeneration(),
		}
		if e.Breaker != nil {
			ps.breakerState = e.Breaker.currentState()
			ps.breakerOpens = e.Breaker.opens.Load()
			ps.hasBreaker = true
		}
		if t, ok := retired[e.Name]; ok {
			ps.plans.Hits += t.PlanHits
			ps.plans.Misses += t.PlanMisses
			ps.plans.Evictions += t.PlanEvictions
			ps.plans.Invalidations += t.PlanInvalidations
			ps.dataGen += t.DataGenerations
			ps.breakerOpens += t.BreakerOpens
		}
		pools = append(pools, ps)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(s.metrics.render(pools, s.laneStats(), s.reg.Quarantined(), s.ingestStats())))
}

// ---- helpers ----

// readBinBody reads the whole request body into dst (a pooled scratch slice)
// without intermediate allocation, bounded by MaxBodyBytes.
func (s *Server) readBinBody(w http.ResponseWriter, r *http.Request, dst []byte) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := body.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, fmt.Errorf("read request: %w", err)
		}
	}
}

// replyBin writes a 200 binary estimate response, reusing the request's
// pooled scratch buffer for the encoding.
func (s *Server) replyBin(w http.ResponseWriter, buf *[]byte, model string, ests []float64, errs []string, degraded bool) {
	out := AppendBinResponse((*buf)[:0], model, ests, errs, degraded)
	*buf = out
	w.Header().Set("Content-Type", ContentTypeBinary)
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	_, _ = w.Write(out)
}

func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	return nil
}

func (s *Server) reply(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	s.reply(w, status, errorResponse{Error: err.Error()})
}

// EncodeQuery converts an internal query into its wire form — the helper
// clients and the load-test harness use to build request bodies. The
// encoding is canonical: encode → JSON → decode → encode is the identity.
func EncodeQuery(q query.Query) (QueryJSON, error) {
	out := QueryJSON{Tables: q.Tables}
	for _, f := range q.Filters {
		fj, err := encodeFilter(f)
		if err != nil {
			return QueryJSON{}, err
		}
		out.Filters = append(out.Filters, fj)
	}
	return out, nil
}

// encodeFilter converts one filter clause, including its OR alternatives
// (emitted with the group's table/column made explicit).
func encodeFilter(f query.Filter) (FilterJSON, error) {
	fj := FilterJSON{Table: f.Table, Col: f.Col, Op: f.Op.String()}
	if err := encodeFilterValues(f, &fj); err != nil {
		return FilterJSON{}, err
	}
	for _, alt := range f.Or {
		if alt.Table == "" {
			alt.Table = f.Table
		}
		if alt.Col == "" {
			alt.Col = f.Col
		}
		aj, err := encodeFilter(alt)
		if err != nil {
			return FilterJSON{}, err
		}
		fj.Or = append(fj.Or, aj)
	}
	return fj, nil
}

// encodeFilterValues fills the op-appropriate value fields of fj.
func encodeFilterValues(f query.Filter, fj *FilterJSON) error {
	setInt := func(dst **int64, v int64) { i := v; *dst = &i }
	setStr := func(dst **string, v string) { s := v; *dst = &s }
	encodeVal := func(v value.Value, i **int64, s **string) error {
		switch v.K {
		case value.KindInt:
			setInt(i, v.I)
		case value.KindStr:
			setStr(s, v.S)
		default:
			return fmt.Errorf("filter %s: NULL literal has no wire form (use IS NULL)", f)
		}
		return nil
	}
	switch f.Op {
	case query.OpIsNull, query.OpIsNotNull:
		return nil
	case query.OpIn, query.OpNotIn:
		for _, v := range f.Set {
			switch v.K {
			case value.KindInt:
				fj.Set = append(fj.Set, v.I)
			case value.KindStr:
				fj.Set = append(fj.Set, v.S)
			default:
				return fmt.Errorf("filter %s: NULL in %s set has no wire form", f, f.Op)
			}
		}
		return nil
	case query.OpBetween:
		if err := encodeVal(f.Val, &fj.Int, &fj.Str); err != nil {
			return err
		}
		return encodeVal(f.Hi, &fj.Int2, &fj.Str2)
	default:
		return encodeVal(f.Val, &fj.Int, &fj.Str)
	}
}

// DecodeQuery converts the wire form into the internal query model — the
// inverse of EncodeQuery, exported so clients can verify round trips.
func DecodeQuery(qj QueryJSON) (query.Query, error) {
	q := query.Query{Tables: qj.Tables}
	for _, fj := range qj.Filters {
		f, err := decodeFilter(fj, true)
		if err != nil {
			return query.Query{}, err
		}
		q.Filters = append(q.Filters, f)
	}
	return q, nil
}

func decodeFilter(fj FilterJSON, allowOr bool) (query.Filter, error) {
	op, err := decodeOp(fj.Op)
	if err != nil {
		return query.Filter{}, err
	}
	f := query.Filter{Table: fj.Table, Col: fj.Col, Op: op}
	where := fmt.Sprintf("filter %s.%s", fj.Table, fj.Col)

	hasSecond := fj.Int2 != nil || fj.Str2 != nil
	switch op {
	case query.OpIsNull, query.OpIsNotNull:
		if fj.Int != nil || fj.Str != nil || hasSecond || len(fj.Set) > 0 {
			return query.Filter{}, fmt.Errorf("%s: %s takes no value", where, op)
		}
	case query.OpIn, query.OpNotIn:
		if len(fj.Set) == 0 {
			return query.Filter{}, fmt.Errorf("%s: %s requires a non-empty \"set\"", where, op)
		}
		if fj.Int != nil || fj.Str != nil || hasSecond {
			return query.Filter{}, fmt.Errorf("%s: %s takes \"set\", not \"int\"/\"str\"", where, op)
		}
		for _, el := range fj.Set {
			v, err := decodeSetElement(el)
			if err != nil {
				return query.Filter{}, fmt.Errorf("%s: %w", where, err)
			}
			f.Set = append(f.Set, v)
		}
	case query.OpBetween:
		if len(fj.Set) > 0 {
			return query.Filter{}, fmt.Errorf("%s: BETWEEN takes bounds, not \"set\"", where)
		}
		switch {
		case fj.Int != nil && fj.Int2 != nil && fj.Str == nil && fj.Str2 == nil:
			f.Val, f.Hi = value.Int(*fj.Int), value.Int(*fj.Int2)
		case fj.Str != nil && fj.Str2 != nil && fj.Int == nil && fj.Int2 == nil:
			f.Val, f.Hi = value.Str(*fj.Str), value.Str(*fj.Str2)
		default:
			return query.Filter{}, fmt.Errorf("%s: BETWEEN requires \"int\"+\"int2\" or \"str\"+\"str2\"", where)
		}
	default:
		if hasSecond {
			return query.Filter{}, fmt.Errorf("%s: \"int2\"/\"str2\" only apply to BETWEEN", where)
		}
		switch {
		case fj.Int != nil && fj.Str == nil && fj.Set == nil:
			f.Val = value.Int(*fj.Int)
		case fj.Str != nil && fj.Int == nil && fj.Set == nil:
			f.Val = value.Str(*fj.Str)
		default:
			return query.Filter{}, fmt.Errorf("%s: exactly one of \"int\" or \"str\" must be set", where)
		}
	}

	if len(fj.Or) > 0 && !allowOr {
		return query.Filter{}, fmt.Errorf("%s: \"or\" alternatives cannot nest", where)
	}
	for _, alt := range fj.Or {
		if alt.Table != "" && alt.Table != fj.Table {
			return query.Filter{}, fmt.Errorf("%s: \"or\" alternative references table %q", where, alt.Table)
		}
		if alt.Col != "" && alt.Col != fj.Col {
			return query.Filter{}, fmt.Errorf("%s: \"or\" alternative references column %q", where, alt.Col)
		}
		af, err := decodeFilter(alt, false)
		if err != nil {
			return query.Filter{}, err
		}
		f.Or = append(f.Or, af)
	}
	return f, nil
}

func decodeSetElement(el any) (value.Value, error) {
	switch v := el.(type) {
	case string:
		return value.Str(v), nil
	case int64: // EncodeQuery output used in-process, without a JSON round trip
		return value.Int(v), nil
	case float64:
		if v != math.Trunc(v) || math.Abs(v) > 1<<53 {
			return value.Value{}, fmt.Errorf("set element %v is not an exact integer", v)
		}
		return value.Int(int64(v)), nil
	default:
		return value.Value{}, fmt.Errorf("set element %v (%T) must be a string or integer", el, el)
	}
}

func decodeOp(op string) (query.Op, error) {
	// Case-insensitive with internal whitespace collapsed, so "is  null"
	// and "IS NULL" both parse.
	switch strings.Join(strings.Fields(strings.ToUpper(op)), " ") {
	case "=", "==", "EQ":
		return query.OpEq, nil
	case "!=", "<>", "NEQ":
		return query.OpNeq, nil
	case "<", "LT":
		return query.OpLt, nil
	case "<=", "LE":
		return query.OpLe, nil
	case ">", "GT":
		return query.OpGt, nil
	case ">=", "GE":
		return query.OpGe, nil
	case "IN":
		return query.OpIn, nil
	case "NOT IN", "NOTIN":
		return query.OpNotIn, nil
	case "BETWEEN":
		return query.OpBetween, nil
	case "IS NULL", "ISNULL":
		return query.OpIsNull, nil
	case "IS NOT NULL", "ISNOTNULL":
		return query.OpIsNotNull, nil
	default:
		return 0, fmt.Errorf("unknown operator %q (want =, !=, <, <=, >, >=, IN, NOT IN, BETWEEN, IS NULL, IS NOT NULL)", op)
	}
}
