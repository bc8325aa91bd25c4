package main

import (
	"time"

	"neurocard/internal/core"
	"neurocard/internal/datagen"
	"neurocard/internal/made"
)

// config is everything that shapes a run. pinned() is the benchmark; every
// value is a literal here — not harness.Quick() — so an edit to the harness
// cannot move the ledger. Tests shrink a copy.
type config struct {
	data        datagen.Config
	model       made.Config
	factBits    int
	batchSize   int
	wildcard    float64
	samplerWrk  int
	psamples    int
	coreSeed    int64
	trainTuples int

	warmup time.Duration // discarded load before every timed window
	slice  time.Duration // a window is cut into slices of this length; a metric is the median of their values
	pairs  int           // untraced/traced slice pairs in a traced window

	goldenN     int   // executor-labeled queries behind qerr_*
	goldenSeed  int64 // fixes them independently of -seed
	requestSeed int64 // seed sent with every correctness-pass request

	uniqueQueries int // point_unique: twice the plan cache's 4096 entries
	hotQueries    int // hot set: inside every cache
	batchQueries  int // queries per NCB request on batch_hot_f32

	probeRate    float64       // probe_open arrivals per second
	jitter       float64       // uniform ± share of the open-loop interval
	ingestRate   float64       // ingest_mixed batches per second
	ingestRows   int           // rows per ingest batch
	refreshEvery time.Duration // ingest_mixed: a refresh starts this often; also that workload's slice, so that every slice holds one refresh
	refreshTune  int           // fine-tune tuples per refresh

	minTail     int     // samples that must lie beyond a reported percentile
	replayReqs  int     // queries replayed in-process in a traced run, as whole requests
	layerBudget float64 // seconds each scripted layer pass may take
}

func pinned() config {
	return config{
		data:        datagen.Config{Seed: 42, Scale: 0.08},
		model:       made.Config{EmbedDim: 8, Hidden: 64, Blocks: 1, LR: 3e-3, ClipNorm: 5, Seed: 1},
		factBits:    10,
		batchSize:   256,
		wildcard:    0.5,
		samplerWrk:  2,
		psamples:    128,
		coreSeed:    42,
		trainTuples: 80_000,

		warmup: 2 * time.Second,
		slice:  2 * time.Second,
		pairs:  20,

		goldenN:     200,
		goldenSeed:  20260728,
		requestSeed: 4242,

		uniqueQueries: 8192,
		hotQueries:    64,
		batchQueries:  16,

		probeRate:    1000,
		jitter:       0.10,
		ingestRate:   20,
		ingestRows:   6,
		refreshEvery: 5 * time.Second,
		refreshTune:  4096,

		minTail:     10,
		replayReqs:  256,
		layerBudget: 0.12,
	}
}

func (c config) core(contentCols map[string][]string) core.Config {
	return core.Config{
		Model:          c.model,
		FactBits:       c.factBits,
		ContentCols:    contentCols,
		BatchSize:      c.batchSize,
		WildcardProb:   c.wildcard,
		SamplerWorkers: c.samplerWrk,
		Seed:           c.coreSeed,
		PSamples:       c.psamples,
	}
}

const modelName = "joblight"

// jobLightGraphs are the 18 JOB-light join graphs (title plus one to four of
// its fact tables), copied from internal/workload so the probe workload does
// not move when that package's generator does.
var jobLightGraphs = func() [][]string {
	const (
		ci  = "cast_info"
		mc  = "movie_companies"
		mi  = "movie_info"
		mk  = "movie_keyword"
		mii = "movie_info_idx"
	)
	combos := [][]string{
		{ci}, {mc}, {mi}, {mk}, {mii},
		{ci, mc}, {ci, mi}, {ci, mk}, {mc, mi}, {mc, mk}, {mi, mii}, {mc, mii},
		{ci, mi, mk}, {ci, mc, mi}, {mc, mi, mii}, {ci, mc, mk},
		{ci, mc, mi, mk}, {mc, mi, mii, mk},
	}
	graphs := make([][]string, len(combos))
	for i, c := range combos {
		graphs[i] = append([]string{"title"}, c...)
	}
	return graphs
}()

// workloadSpec is one traffic mix. See README.md for why each exists.
type workloadSpec struct {
	name      string
	why       string
	precision core.Precision
	binary    bool // NCB frames of cfg.batchQueries queries; else JSON singles
	clients   int  // closed-loop estimate clients (0 on the open-loop workload)
	open      bool // estimates arrive on a schedule at cfg.probeRate
	ingest    bool // a writer and a refresher run beside the reader
	queries   func(g *queryGen, c config) []queryT
}

var workloads = []workloadSpec{
	{
		name:      "point_unique",
		why:       "2 closed-loop JSON clients cycle 8192 distinct filtered queries: every cache misses, model kernels and plan compile dominate",
		precision: core.PrecisionFloat64,
		clients:   2,
		queries:   func(g *queryGen, c config) []queryT { return g.filtered(c.uniqueQueries) },
	},
	{
		name:      "batch_hot_f32",
		why:       "2 closed-loop NCB clients send 16-query float32 batches from a 64-query hot set: worker pool, f32 kernels, every cache hits",
		precision: core.PrecisionFloat32,
		binary:    true,
		clients:   2,
		queries:   func(g *queryGen, c config) []queryT { return g.filtered(c.hotQueries) },
	},
	{
		name:      "probe_open",
		why:       "open loop at 1000 filter-less join-size probes/s on 2 connections: model work is small, so the request pipeline and coalescer dominate",
		precision: core.PrecisionFloat64,
		open:      true,
		queries:   func(g *queryGen, c config) []queryT { return g.probes() },
	},
	{
		name:      "ingest_mixed",
		why:       "1 closed-loop reader beside 20 ingest batches/s and periodic refreshes: fsync, fine-tune, checkpoint and hot swap compete with estimates",
		precision: core.PrecisionFloat64,
		clients:   1,
		ingest:    true,
		queries:   func(g *queryGen, c config) []queryT { return g.filtered(c.hotQueries) },
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricDef names one metric of the ledger. bound > 0 marks an end-to-end
// metric (the share of the parent's median it may worsen by); only lists the
// workloads a metric exists on (nil = all). BENCHMARK.json and the JSON line
// carry the metrics that exist on every workload, as the driver wants every
// listed metric from every workload; names_test.go holds the two in step.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
	only   []string
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "est_qps", unit: "estimates/s", better: "higher", bound: 0.25},
	{name: "est_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "est_p95_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "cpu_ms_per_est", unit: "ms", better: "lower", bound: 0.25},
	{name: "ok_frac", unit: "ratio", better: "higher", bound: 0.001},
	{name: "qerr_p50", unit: "ratio", better: "lower", bound: 0.02},
	{name: "qerr_p95", unit: "ratio", better: "lower", bound: 0.02},
	{name: "weight_bytes", unit: "bytes", better: "lower", bound: 0.001},
	{name: "heap_mb", unit: "MB", better: "lower", bound: 0.10},
	{name: "refresh_s", unit: "s", better: "lower", bound: 0.25, only: ingestOnly},
}

var (
	openOnly   = []string{"probe_open", "ingest_mixed"}
	fusedOnly  = []string{"point_unique", "probe_open", "ingest_mixed"}
	ingestOnly = []string{"ingest_mixed"}
)

var perLayer = []metricDef{
	{name: "loadgen.sent", unit: "count", better: "higher"},
	{name: "loadgen.ok", unit: "count", better: "higher"},
	{name: "loadgen.failed", unit: "count", better: "lower"},
	{name: "loadgen.p99_ms", unit: "ms", better: "lower", only: fusedOnly},
	{name: "loadgen.late_p95_ms", unit: "ms", better: "lower", only: openOnly},
	{name: "loadgen.backlog_max", unit: "count", better: "lower", only: openOnly},
	{name: "loadgen.querygen_s", unit: "s", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},

	{name: "http.self_p50_us", unit: "us", better: "lower"},
	{name: "http.self_p95_us", unit: "us", better: "lower"},

	{name: "server.handler_p50_us", unit: "us", better: "lower"},
	{name: "server.handler_p95_us", unit: "us", better: "lower"},
	{name: "server.self_p50_us", unit: "us", better: "lower"},
	{name: "server.decode_json_us", unit: "us", better: "lower"},
	{name: "server.decode_bin_us", unit: "us", better: "lower"},
	{name: "server.encode_bin_us", unit: "us", better: "lower"},
	{name: "server.fuse_batch_mean", unit: "count", better: "higher", only: fusedOnly},
	{name: "server.fuse_window_us", unit: "us", better: "lower", only: fusedOnly},
	{name: "server.queue_depth_mean", unit: "count", better: "lower", only: fusedOnly},
	{name: "server.rejected", unit: "count", better: "lower"},
	{name: "server.fallbacks", unit: "count", better: "lower"},
	{name: "server.inflight_peak", unit: "count", better: "lower"},
	{name: "server.allocs_per_req", unit: "count", better: "lower"},
	{name: "server.load_ms", unit: "ms", better: "lower"},
	{name: "server.ingest_ack_p50_ms", unit: "ms", better: "lower", only: ingestOnly},
	{name: "server.ingest_ack_p95_ms", unit: "ms", better: "lower", only: ingestOnly},
	{name: "server.refresh_ms", unit: "ms", better: "lower", only: ingestOnly},
	{name: "server.swap_gap_ms", unit: "ms", better: "lower", only: ingestOnly},

	{name: "core.est_us_f64", unit: "us", better: "lower"},
	{name: "core.est_us_f32", unit: "us", better: "lower"},
	{name: "core.plan_compile_us", unit: "us", better: "lower"},
	{name: "core.plan_hit_ratio", unit: "ratio", better: "higher"},
	{name: "core.items_qps_w1", unit: "estimates/s", better: "higher"},
	{name: "core.items_qps_wN", unit: "estimates/s", better: "higher"},
	{name: "core.items_scaling", unit: "ratio", better: "higher"},
	{name: "core.allocs_per_est", unit: "count", better: "lower"},
	{name: "core.build_ms", unit: "ms", better: "lower"},
	{name: "core.train_tuples_per_s", unit: "tuples/s", better: "higher"},
	{name: "core.ckpt_write_ms", unit: "ms", better: "lower"},
	{name: "core.ckpt_load_ms", unit: "ms", better: "lower"},
	{name: "core.ckpt_bytes", unit: "bytes", better: "lower"},
	{name: "core.update_append_ms", unit: "ms", better: "lower"},

	{name: "made.pass_us_f64", unit: "us", better: "lower"},
	{name: "made.pass_us_f32", unit: "us", better: "lower"},
	{name: "made.probs_ns_col_f64", unit: "ns", better: "lower"},
	{name: "made.probs_ns_col_f32", unit: "ns", better: "lower"},
	{name: "made.replicate_ns", unit: "ns", better: "lower"},
	{name: "made.train_step_ms", unit: "ms", better: "lower"},
	{name: "made.params", unit: "count", better: "lower"},

	{name: "nn.ref_matmul_per_s", unit: "1/s", better: "higher"},
	{name: "nn.matmulcols_f64_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "nn.matmulcolsbt_f32_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "nn.softmax_f64_ns_row", unit: "ns", better: "lower"},
	{name: "nn.softmax_f32_ns_row", unit: "ns", better: "lower"},
	{name: "nn.dot32_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "nn.axpy32_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "nn.flops_per_pass", unit: "count", better: "lower"},
	{name: "nn.weight_bytes_touched_per_pass", unit: "bytes", better: "lower"},

	{name: "sampler.build_ms", unit: "ms", better: "lower"},
	{name: "sampler.tuples_per_s", unit: "tuples/s", better: "higher"},
	{name: "sampler.append_ms", unit: "ms", better: "lower"},

	{name: "query.key_ns", unit: "ns", better: "lower"},
	{name: "query.decode_key_ns", unit: "ns", better: "lower"},

	{name: "ingest.append_us", unit: "us", better: "lower"},
	{name: "ingest.encode_ns", unit: "ns", better: "lower"},
	{name: "ingest.replay_ms", unit: "ms", better: "lower"},
	{name: "ingest.bytes_per_row", unit: "bytes", better: "lower"},

	{name: "ledger.non_core_frac", unit: "ratio", better: "lower"},
	{name: "ledger.core_over_made", unit: "ratio", better: "lower"},
}

// appliesTo reports whether the metric exists on the workload.
func (m metricDef) appliesTo(workload string) bool {
	if m.only == nil {
		return true
	}
	for _, w := range m.only {
		if w == workload {
			return true
		}
	}
	return false
}

// exists reports whether the named metric exists on the workload.
func exists(name, workload string) bool {
	for _, m := range perLayer {
		if m.name == name {
			return m.appliesTo(workload)
		}
	}
	return false
}
