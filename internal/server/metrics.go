package server

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"neurocard/internal/core"
)

// latencyBuckets are the request-latency histogram upper bounds in seconds
// (Prometheus cumulative-bucket convention; +Inf is implicit).
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// lanesBusyBuckets bound the lanes-busy-at-pick-up histogram.
var lanesBusyBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// queueDepthBuckets bound the queue-depth-at-pick-up histogram.
var queueDepthBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// queueWaitBuckets bound the lane-queue-wait histogram in seconds.
var queueWaitBuckets = []float64{0.00001, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.05, 0.25, 1}

// histogram is a fixed-bucket histogram with atomic counters, safe for
// concurrent observation without locks.
type histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // one per bucket, non-cumulative; last = +Inf
	sumBits atomic.Uint64  // float64 bits of the running sum
	samples atomic.Int64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	h.samples.Add(1)
}

func (h *histogram) observeDuration(d time.Duration) { h.observe(d.Seconds()) }

func (h *histogram) sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// quantile estimates the q-quantile (0 < q < 1) from the bucket counts with
// linear interpolation inside the winning bucket — the standard
// histogram_quantile approximation. Returns 0 with no samples; observations
// beyond the last finite bound report that bound.
func (h *histogram) quantile(q float64) float64 {
	total := h.samples.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := int64(0)
	for i, ub := range h.bounds {
		c := h.counts[i].Load()
		if float64(cum)+float64(c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if c == 0 {
				return ub
			}
			return lo + (ub-lo)*(rank-float64(cum))/float64(c)
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// renderHistogram writes one histogram in Prometheus text exposition.
func renderHistogram(b *strings.Builder, name, help string, h *histogram) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	cum := int64(0)
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{le=\"%g\"} %d\n", name, ub, cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(b, "%s_sum %g\n", name, h.sum())
	fmt.Fprintf(b, "%s_count %d\n", name, h.samples.Load())
}

// metrics aggregates the serving counters exposed on /metrics.
type metrics struct {
	start time.Time

	sloP99 time.Duration // p99 latency SLO target (Config.SLOLatencyP99)

	reqLatency *histogram // per-request wall time (estimate endpoint)

	// Estimate-lane instruments, each observed once per lane pick-up. They
	// are exported under family names that predate the lanes (the ledger and
	// dashboards read neurocard_fused_batch_size, _coalesce_queue_depth,
	// _coalesce_window_seconds, _coalesce_rejected_total); the HELP lines
	// state what they measure.
	laneConcurrency *histogram   // lanes busy at pick-up, this one included
	laneQueueDepth  *histogram   // requests still queued at pick-up
	laneQueueWait   *histogram   // seconds the picked-up request waited in the queue
	laneRejected    atomic.Int64 // admission-control 429s

	queriesTotal  atomic.Int64 // individual query estimates served
	requestsTotal atomic.Int64 // estimate HTTP requests served
	errorsTotal   atomic.Int64 // estimate requests answered with an error
	loadsTotal    atomic.Int64 // model (re)loads
	binaryTotal   atomic.Int64 // estimate requests on the binary protocol

	// Fault-tolerance counters.
	timeoutsTotal  atomic.Int64 // estimates failed on an expired deadline
	fallbackTotal  atomic.Int64 // query estimates served by the fallback estimator
	panicsTotal    atomic.Int64 // panics recovered in handlers and lanes
	nonfiniteTotal atomic.Int64 // estimates rejected by the sanity guard

	// Sharded-serving counters.
	logicalQueries atomic.Int64 // query estimates composed from shard models
	unloadsTotal   atomic.Int64 // model/logical unloads via DELETE
	shardRouted    sync.Map     // "logical\x00shard" → *atomic.Int64 sub-queries routed

	// Ingest/refresh counters (server-wide; per-model detail rides on
	// ingestStat rows sampled at scrape time).
	ingestRowsTotal   atomic.Int64 // rows durably journaled and acknowledged
	ingestFailedTotal atomic.Int64 // ingest requests that failed to journal (not acked)
	refreshTotal      atomic.Int64 // model refresh cycles hot-swapped in

	inflight     atomic.Int64 // estimate requests currently executing
	inflightPeak atomic.Int64
}

func newMetrics(sloP99 time.Duration) *metrics {
	return &metrics{
		start:           time.Now(),
		sloP99:          sloP99,
		reqLatency:      newHistogram(latencyBuckets),
		laneConcurrency: newHistogram(lanesBusyBuckets),
		laneQueueDepth:  newHistogram(queueDepthBuckets),
		laneQueueWait:   newHistogram(queueWaitBuckets),
	}
}

// requestStart tracks an in-flight estimate request; call the returned
// function exactly once when it completes.
func (m *metrics) requestStart() (done func(queries int, err bool)) {
	cur := m.inflight.Add(1)
	for {
		peak := m.inflightPeak.Load()
		if cur <= peak || m.inflightPeak.CompareAndSwap(peak, cur) {
			break
		}
	}
	start := time.Now()
	return func(queries int, errored bool) {
		m.inflight.Add(-1)
		m.requestsTotal.Add(1)
		// Latency is observed for every terminal outcome: deadline expiries
		// and 500s are exactly the slow tail the SLO gauges must see.
		// queriesTotal stays success-only.
		m.reqLatency.observeDuration(time.Since(start))
		if errored {
			m.errorsTotal.Add(1)
			return
		}
		m.queriesTotal.Add(int64(queries))
	}
}

// routeToShard counts n sub-queries routed from a logical model to one of
// its shard models.
func (m *metrics) routeToShard(logical, shard string, n int64) {
	key := logical + "\x00" + shard
	c, ok := m.shardRouted.Load(key)
	if !ok {
		c, _ = m.shardRouted.LoadOrStore(key, new(atomic.Int64))
	}
	c.(*atomic.Int64).Add(n)
}

// poolStat is one model's session-pool occupancy, plan-cache, and breaker
// snapshot.
type poolStat struct {
	model        string
	free, inUse  int
	plans        core.PlanCacheStats
	precision    string // serving element width ("float64"/"float32")
	weightBytes  int    // resident serving-weight bytes (width × parameters)
	dataGen      int64  // estimator data-snapshot generation
	hasBreaker   bool
	breakerState int32 // breakerClosed / breakerHalfOpen / breakerOpen
	breakerOpens int64 // lifetime open transitions
}

// render writes the Prometheus text exposition of every counter. pools
// carries the per-model session-pool occupancy and lanes the estimate-lane
// state, both sampled at scrape time.
func (m *metrics) render(pools []poolStat, lanes laneStats, quarantined int64, ingests []ingestStat) string {
	var b strings.Builder
	uptime := time.Since(m.start).Seconds()
	queries := m.queriesTotal.Load()

	renderHistogram(&b, "neurocard_estimate_latency_seconds",
		"Wall time of estimate requests.", m.reqLatency)

	// The same observations as a quantile summary: client-observed request
	// latency including lane queueing, the SLO-facing view.
	fmt.Fprintf(&b, "# HELP neurocard_request_latency_seconds Estimate request latency quantiles (incl. lane queueing).\n")
	fmt.Fprintf(&b, "# TYPE neurocard_request_latency_seconds summary\n")
	p99 := m.reqLatency.quantile(0.99)
	for _, q := range []struct {
		label string
		v     float64
	}{{"0.5", m.reqLatency.quantile(0.5)}, {"0.95", m.reqLatency.quantile(0.95)}, {"0.99", p99}} {
		fmt.Fprintf(&b, "neurocard_request_latency_seconds{quantile=%q} %g\n", q.label, q.v)
	}
	fmt.Fprintf(&b, "neurocard_request_latency_seconds_sum %g\n", m.reqLatency.sum())
	fmt.Fprintf(&b, "neurocard_request_latency_seconds_count %d\n", m.reqLatency.samples.Load())

	renderHistogram(&b, "neurocard_fused_batch_size",
		"Estimate lanes busy when a lane picks up a single-query request, itself included: the concurrency achieved.", m.laneConcurrency)
	renderHistogram(&b, "neurocard_coalesce_queue_depth",
		"Single-query requests still waiting in the lane queue at each pick-up.", m.laneQueueDepth)
	renderHistogram(&b, "neurocard_coalesce_window_seconds",
		"Seconds a single-query request waited in the lane queue before a lane picked it up.", m.laneQueueWait)

	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("neurocard_estimate_queries_total", "Individual query estimates served.", queries)
	counter("neurocard_estimate_requests_total", "Estimate HTTP requests served.", m.requestsTotal.Load())
	counter("neurocard_estimate_errors_total", "Estimate requests answered with an error.", m.errorsTotal.Load())
	counter("neurocard_model_loads_total", "Model checkpoint (re)loads.", m.loadsTotal.Load())
	counter("neurocard_binary_requests_total", "Estimate requests on the binary wire protocol.", m.binaryTotal.Load())
	counter("neurocard_coalesce_rejected_total", "Single-query requests rejected because the lane queue was full (429).", m.laneRejected.Load())
	counter("neurocard_request_timeouts_total", "Query estimates failed on an expired deadline (504).", m.timeoutsTotal.Load())
	counter("neurocard_fallback_total", "Query estimates served by the fallback estimator while degraded.", m.fallbackTotal.Load())
	counter("neurocard_recovered_panics_total", "Panics recovered by the serving blast-radius guards.", m.panicsTotal.Load())
	counter("neurocard_nonfinite_estimates_total", "Estimates rejected by the NaN/Inf/non-positive sanity guard.", m.nonfiniteTotal.Load())
	counter("neurocard_checkpoints_quarantined_total", "Corrupt checkpoint files moved aside at load.", quarantined)
	counter("neurocard_logical_queries_total", "Query estimates composed from shard models.", m.logicalQueries.Load())
	counter("neurocard_model_unloads_total", "Models and logical models removed via the unload API.", m.unloadsTotal.Load())

	// Per-shard routing: sub-queries each logical model dispatched to each
	// shard model, the primary signal for shard-fleet load balancing.
	type routedRow struct {
		logical, shard string
		n              int64
	}
	var routed []routedRow
	m.shardRouted.Range(func(k, v any) bool {
		logical, shardName, _ := strings.Cut(k.(string), "\x00")
		routed = append(routed, routedRow{logical, shardName, v.(*atomic.Int64).Load()})
		return true
	})
	sort.Slice(routed, func(i, j int) bool {
		if routed[i].logical != routed[j].logical {
			return routed[i].logical < routed[j].logical
		}
		return routed[i].shard < routed[j].shard
	})
	fmt.Fprintf(&b, "# HELP neurocard_shard_routed_total Sub-queries routed per (logical model, shard model).\n# TYPE neurocard_shard_routed_total counter\n")
	for _, rr := range routed {
		fmt.Fprintf(&b, "neurocard_shard_routed_total{logical=%q,shard=%q} %d\n", rr.logical, rr.shard, rr.n)
	}

	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	// The serving SLO, as three gauges: observed p99, the target, and a 0/1
	// breach flag alerting rules can consume directly.
	gauge("neurocard_slo_p99_latency_seconds", "Observed p99 estimate latency (SLO gauge).", p99)
	gauge("neurocard_slo_p99_target_seconds", "Configured p99 latency SLO target.", m.sloP99.Seconds())
	breached := 0.0
	if m.sloP99 > 0 && p99 > m.sloP99.Seconds() {
		breached = 1
	}
	gauge("neurocard_slo_p99_breached", "1 when observed p99 exceeds the SLO target.", breached)

	gauge("neurocard_inflight_requests", "Estimate requests currently executing.", float64(m.inflight.Load()))
	gauge("neurocard_inflight_requests_peak", "Peak concurrent estimate requests since start.", float64(m.inflightPeak.Load()))
	gauge("neurocard_uptime_seconds", "Seconds since server start.", uptime)
	qps := 0.0
	if uptime > 0 {
		qps = float64(queries) / uptime
	}
	gauge("neurocard_queries_per_second_lifetime", "Lifetime average estimate throughput.", qps)

	// Lane saturation at a glance: busy == lanes with a non-zero queue means
	// single-query traffic is waiting on cores.
	gauge("neurocard_estimate_lanes", "Estimate lanes serving single-query requests.", float64(lanes.lanes))
	gauge("neurocard_estimate_lanes_busy", "Estimate lanes running an estimate at scrape time.", float64(lanes.busy))
	gauge("neurocard_coalesce_queue_depth_current", "Single-query requests waiting in the lane queue at scrape time.", float64(lanes.queued))

	// Breaker state per model: 0 = closed (healthy), 1 = half-open (probing),
	// 2 = open (fallback serving). Absent for models without a breaker.
	fmt.Fprintf(&b, "# HELP neurocard_breaker_state Circuit breaker state per model (0 closed, 1 half-open, 2 open).\n# TYPE neurocard_breaker_state gauge\n")
	for _, p := range pools {
		if p.hasBreaker {
			fmt.Fprintf(&b, "neurocard_breaker_state{model=%q} %d\n", p.model, p.breakerState)
		}
	}
	fmt.Fprintf(&b, "# HELP neurocard_breaker_opens_total Circuit breaker open transitions per model.\n# TYPE neurocard_breaker_opens_total counter\n")
	for _, p := range pools {
		if p.hasBreaker {
			fmt.Fprintf(&b, "neurocard_breaker_opens_total{model=%q} %d\n", p.model, p.breakerOpens)
		}
	}

	fmt.Fprintf(&b, "# HELP neurocard_sessions_in_use Inference sessions checked out per model.\n# TYPE neurocard_sessions_in_use gauge\n")
	for _, p := range pools {
		fmt.Fprintf(&b, "neurocard_sessions_in_use{model=%q} %d\n", p.model, p.inUse)
	}
	fmt.Fprintf(&b, "# HELP neurocard_sessions_free Idle pooled inference sessions per model.\n# TYPE neurocard_sessions_free gauge\n")
	for _, p := range pools {
		fmt.Fprintf(&b, "neurocard_sessions_free{model=%q} %d\n", p.model, p.free)
	}

	// Serving precision per model: the weight-bytes gauge is the capacity-
	// planning number (float32 halves it), the precision label the switch
	// that explains a change after a reload.
	fmt.Fprintf(&b, "# HELP neurocard_model_weight_bytes Resident serving-weight bytes per model (element width x parameters).\n# TYPE neurocard_model_weight_bytes gauge\n")
	for _, p := range pools {
		fmt.Fprintf(&b, "neurocard_model_weight_bytes{model=%q} %d\n", p.model, p.weightBytes)
	}
	fmt.Fprintf(&b, "# HELP neurocard_model_precision_info Serving precision per model (value always 1; width in the precision label).\n# TYPE neurocard_model_precision_info gauge\n")
	for _, p := range pools {
		fmt.Fprintf(&b, "neurocard_model_precision_info{model=%q,precision=%q} 1\n", p.model, p.precision)
	}

	// Compiled-plan cache: hits/misses/evictions are lifetime counters,
	// size/capacity are point-in-time gauges. A healthy steady-state serving
	// workload shows hits ≫ misses — repeated query shapes skip planning.
	planCounter := func(name, help string, get func(core.PlanCacheStats) int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, p := range pools {
			fmt.Fprintf(&b, "%s{model=%q} %d\n", name, p.model, get(p.plans))
		}
	}
	planCounter("neurocard_plan_cache_hits_total", "Estimates served from a cached compiled plan.",
		func(s core.PlanCacheStats) int64 { return s.Hits })
	planCounter("neurocard_plan_cache_misses_total", "Estimates that compiled their plan.",
		func(s core.PlanCacheStats) int64 { return s.Misses })
	planCounter("neurocard_plan_cache_evictions_total", "Compiled plans evicted by the LRU bound.",
		func(s core.PlanCacheStats) int64 { return s.Evictions })
	planCounter("neurocard_plan_cache_invalidations_total", "Whole-cache drops caused by data-snapshot swaps (UpdateData/refresh).",
		func(s core.PlanCacheStats) int64 { return s.Invalidations })
	fmt.Fprintf(&b, "# HELP neurocard_plan_cache_size Compiled plans currently cached per model.\n# TYPE neurocard_plan_cache_size gauge\n")
	for _, p := range pools {
		fmt.Fprintf(&b, "neurocard_plan_cache_size{model=%q} %d\n", p.model, p.plans.Size)
	}
	fmt.Fprintf(&b, "# HELP neurocard_plan_cache_capacity Compiled-plan cache bound per model.\n# TYPE neurocard_plan_cache_capacity gauge\n")
	for _, p := range pools {
		fmt.Fprintf(&b, "neurocard_plan_cache_capacity{model=%q} %d\n", p.model, p.plans.Cap)
	}

	// Data-snapshot generation per model: bumps on every ingest replay and
	// refresh, the continuity signal pairing with the invalidation counter.
	fmt.Fprintf(&b, "# HELP neurocard_data_generation Data-snapshot generation of each model's estimator.\n# TYPE neurocard_data_generation gauge\n")
	for _, p := range pools {
		fmt.Fprintf(&b, "neurocard_data_generation{model=%q} %d\n", p.model, p.dataGen)
	}

	// Ingest + refresh: server-wide counters, then per-model journal,
	// staleness, and refresh detail for every ingest-enabled model.
	counter("neurocard_ingest_rows_acked_total", "Rows durably journaled and acknowledged.", m.ingestRowsTotal.Load())
	counter("neurocard_ingest_failed_total", "Ingest requests that failed to journal (not acknowledged).", m.ingestFailedTotal.Load())
	counter("neurocard_refresh_total", "Model refresh cycles hot-swapped in.", m.refreshTotal.Load())

	ingestCounter := func(name, help string, get func(ingestStat) int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, is := range ingests {
			fmt.Fprintf(&b, "%s{model=%q} %d\n", name, is.model, get(is))
		}
	}
	ingestGauge := func(name, help string, get func(ingestStat) float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, is := range ingests {
			fmt.Fprintf(&b, "%s{model=%q} %g\n", name, is.model, get(is))
		}
	}
	ingestCounter("neurocard_ingest_model_rows_acked_total", "Rows durably journaled and acknowledged per model.",
		func(is ingestStat) int64 { return int64(is.rowsAcked) })
	ingestGauge("neurocard_ingest_staleness_rows", "Acknowledged rows not yet absorbed into a refreshed model generation.",
		func(is ingestStat) float64 { return float64(is.pendingRows) })
	ingestGauge("neurocard_ingest_staleness_seconds", "Age of the oldest acknowledged row awaiting a refresh.",
		func(is ingestStat) float64 { return is.secondsBehind })
	ingestGauge("neurocard_ingest_journal_bytes", "On-disk size of the write-ahead row journal.",
		func(is ingestStat) float64 { return float64(is.journalBytes) })
	ingestGauge("neurocard_ingest_journal_rows", "Rows currently held in the write-ahead row journal (drops at prune).",
		func(is ingestStat) float64 { return float64(is.journalRows) })
	ingestGauge("neurocard_ingest_journal_segments", "Segment files in the write-ahead row journal.",
		func(is ingestStat) float64 { return float64(is.journalSegments) })
	ingestCounter("neurocard_ingest_journal_quarantined_total", "Journal files or tails quarantined during replay.",
		func(is ingestStat) int64 { return is.replayQuarantined })
	ingestCounter("neurocard_refresh_model_total", "Refresh cycles hot-swapped in per model.",
		func(is ingestStat) int64 { return is.refreshes })
	ingestCounter("neurocard_refresh_failures_total", "Refresh cycles that failed before hot swap.",
		func(is ingestStat) int64 { return is.refreshFailures })
	ingestCounter("neurocard_refresh_checkpoint_skips_total", "Refreshes that hot-swapped in memory but could not checkpoint.",
		func(is ingestStat) int64 { return is.checkpointSkips })
	ingestGauge("neurocard_refresh_lag_seconds", "Wall time of the last completed refresh cycle.",
		func(is ingestStat) float64 { return is.lastRefreshSecs })
	return b.String()
}
