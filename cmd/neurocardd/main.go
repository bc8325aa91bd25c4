// Command neurocardd is the NeuroCard serving daemon: it loads full-estimator
// checkpoints (written by `neurocard -save` or neurocard.SaveEstimator) into
// a hot-swappable model registry and serves cardinality estimates over an
// HTTP JSON API.
//
//	neurocardd -addr :8642 -models ./models -load imdb
//
// Endpoints:
//
//	POST /v1/estimate            single or batch estimates, optionally seeded;
//	                             Content-Type application/x-neurocard-bin
//	                             selects the compact binary wire protocol
//	GET  /v1/models              loaded models and their metadata
//	POST /v1/models/{name}/load  (re)load <models>/<name>.ckpt, atomic hot swap;
//	                             {"manifest": true} loads <name>.manifest.json
//	                             plus its shard checkpoints as one logical model
//	POST /v1/models/{name}/ingest
//	                             append rows (JSON or binary); acknowledged only
//	                             after a durable (fsync) write-ahead journal
//	                             append — requires -journal
//	DELETE /v1/models/{name}     unload a model or logical model (the default
//	                             re-elects; shards of an unloaded logical stay)
//	GET  /livez                  liveness probe (always 200 while serving HTTP)
//	GET  /readyz                 readiness probe (503 until a model is loaded;
//	                             degraded-but-serving stays 200)
//	GET  /metrics                Prometheus text: latency histogram + quantile
//	                             summary, SLO gauges, estimate-lane
//	                             concurrency/queue-depth/queue-wait
//	                             histograms, session-pool occupancy,
//	                             breaker state, fault counters
//
// Single-query requests are served by estimate lanes: one bounded queue
// drained by -workers persistent goroutines (default one per core), each
// running one estimate at a time with inline kernels, so concurrent
// requests run on concurrent cores. Each request keeps its own randomness
// stream, so concurrency never changes any result. A full -fuse-queue
// answers 429 + Retry-After.
//
// Sharded fleets (written by `neurocard -shards N -save-shards DIR`) serve
// as logical models: -load-manifest (or a manifest load via the API) loads
// every shard checkpoint a manifest lists and publishes the group under the
// logical name. Estimates addressed to it are split per shard, composed with
// the manifest's cross-shard join factors, and each shard keeps its own
// breaker, fallback, and hot-swap lifecycle.
//
// Online ingest (-journal DIR) gives every preloaded model a segmented,
// checksummed write-ahead row journal under DIR/<model>/: appended rows are
// fsynced before the ack, replayed after a crash (torn tails are truncated and
// quarantined), and folded into the serving estimator at startup. A background
// loop (-refresh-interval) absorbs journaled rows into a new model generation:
// clone the checkpoint, apply the rows incrementally, fine-tune on
// -refresh-tuples samples, re-checkpoint, and hot-swap — the journal is pruned
// only once the checkpoint is durable. -max-staleness bounds how long an acked
// row may wait for a refresh before /readyz reports the model degraded (still
// 200: stale models keep serving).
//
// Serving is fault-tolerant by default: -request-timeout bounds every
// estimate end to end (clients tighten per request with X-Deadline-Ms; expiry
// answers 504), a per-model circuit breaker (-breaker-*) trips on model
// faults and routes traffic to a histogram fallback estimator (responses
// marked "degraded": true; disable with -no-fallback), and SIGTERM drains
// in-flight requests before exiting 0. The -faults flag (or the
// NEUROCARD_FAULTS env var) arms the fault-injection layer for chaos testing
// — never set it in production.
//
// Example round trip:
//
//	curl -s localhost:8642/v1/estimate -d '{
//	  "query": {"tables": ["title","movie_companies"],
//	            "filters": [{"table":"title","col":"production_year","op":">=","int":1990}]},
//	  "seed": 42}'
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"neurocard/internal/core"
	"neurocard/internal/faultinject"
	"neurocard/internal/server"
)

func main() {
	addr := flag.String("addr", ":8642", "listen address")
	modelsDir := flag.String("models", "models", "directory of <name>.ckpt checkpoints")
	load := flag.String("load", "", "comma-separated model names to load at startup (first becomes default)")
	loadManifest := flag.String("load-manifest", "", "comma-separated logical model names: load <models>/<name>.manifest.json plus every shard checkpoint it lists, serving the group as one model")
	workers := flag.Int("workers", 0, "batch estimate concurrency and number of single-query estimate lanes (0 = GOMAXPROCS)")
	precision := flag.String("precision", "", "serving precision for loaded models: float64 or float32 (empty keeps each checkpoint's own); per-load overrides via the load API")
	maxBatch := flag.Int("maxbatch", 1024, "maximum queries per estimate request")
	fuseQueue := flag.Int("fuse-queue", 0, "single-query requests that may wait for an estimate lane before 429 backpressure (0 = default 1024)")
	sloP99 := flag.Duration("slo-p99", 0, "p99 request-latency SLO target exported on /metrics (0 = default 25ms)")
	pprofAddr := flag.String("pprof", "", "listen address for net/http/pprof (e.g. localhost:6060); empty disables")
	requestTimeout := flag.Duration("request-timeout", 0, "end-to-end budget per estimate request; expiry answers 504 (0 = unbounded)")
	breakerWindow := flag.Int("breaker-window", 0, "circuit-breaker rolling outcome window per model (0 = default 20)")
	breakerMinSamples := flag.Int("breaker-min-samples", 0, "outcomes required before the breaker can trip (0 = default 10)")
	breakerThreshold := flag.Float64("breaker-threshold", 0, "failure rate that opens the breaker (0 = default 0.5, negative disables breakers)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "first open->half-open delay, doubling per reopen (0 = default 1s)")
	breakerProbes := flag.Int("breaker-probes", 0, "half-open probe budget; all must succeed to close (0 = default 3)")
	noFallback := flag.Bool("no-fallback", false, "disable the histogram fallback estimator; an open breaker then fails the estimates it denies (a single answers 503)")
	journal := flag.String("journal", "", "root directory for per-model write-ahead row journals; enables POST /v1/models/{name}/ingest for preloaded models (empty disables ingest)")
	maxStaleness := flag.Duration("max-staleness", 0, "oldest an acknowledged-but-unabsorbed row may get before /readyz reports the model degraded (0 = staleness never degrades readiness)")
	refreshInterval := flag.Duration("refresh-interval", 30*time.Second, "how often the background loop absorbs journaled rows into a refreshed model generation (0 disables automatic refresh)")
	refreshTuples := flag.Int("refresh-tuples", 2048, "fine-tuning samples per background refresh (0 = absorb rows without fine-tuning)")
	faults := flag.String("faults", os.Getenv("NEUROCARD_FAULTS"),
		"CHAOS TESTING ONLY: arm fault injection, e.g. estimate-panic=0.05,kernel-delay=0.05:2ms,estimate-nan=0.05,ckpt-truncate=0.5,seed=1")
	flag.Parse()

	var defaultPrecision core.Precision
	if *precision != "" {
		p, err := core.ParsePrecision(*precision)
		if err != nil {
			log.Fatalf("-precision: %v", err)
		}
		defaultPrecision = p
	}

	if *faults != "" {
		spec, err := faultinject.ParseSpec(*faults)
		if err != nil {
			log.Fatalf("-faults: %v", err)
		}
		faultinject.Arm(spec)
		log.Printf("FAULT INJECTION ARMED: %s", *faults)
	}

	// Profiling is opt-in and served on its own listener so the debug
	// endpoints never share a port with production traffic.
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			srv := &http.Server{Addr: *pprofAddr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	srv := server.New(server.Config{
		ModelsDir:         *modelsDir,
		Workers:           *workers,
		MaxBatch:          *maxBatch,
		FuseQueue:         *fuseQueue,
		SLOLatencyP99:     *sloP99,
		RequestTimeout:    *requestTimeout,
		BreakerWindow:     *breakerWindow,
		BreakerMinSamples: *breakerMinSamples,
		BreakerThreshold:  *breakerThreshold,
		BreakerCooldown:   *breakerCooldown,
		BreakerProbes:     *breakerProbes,
		NoFallback:        *noFallback,
		DefaultPrecision:  defaultPrecision,
		JournalDir:        *journal,
		MaxStaleness:      *maxStaleness,
	})
	defer srv.Close()
	var preloaded []string
	if *load != "" {
		for i, name := range strings.Split(*load, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			start := time.Now()
			entry, err := srv.Registry().Load(name, "")
			if err != nil {
				log.Fatalf("preload %q: %v", name, err)
			}
			if i == 0 {
				if err := srv.Registry().SetDefault(name); err != nil {
					log.Fatal(err)
				}
			}
			preloaded = append(preloaded, name)
			log.Printf("loaded model %q from %s in %s (|J| = %.4g, %d tables, %s serving)",
				name, entry.Path, time.Since(start).Round(time.Millisecond),
				entry.Est.JoinSize(), entry.Est.NumTables(), entry.Est.Precision())
		}
	}
	if *loadManifest != "" {
		for _, name := range strings.Split(*loadManifest, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			start := time.Now()
			lg, err := srv.Registry().LoadLogical(name, "")
			if err != nil {
				log.Fatalf("preload manifest %q: %v", name, err)
			}
			log.Printf("loaded logical model %q from %s in %s (%d shards over %d tables)",
				name, lg.Path, time.Since(start).Round(time.Millisecond),
				len(lg.Man.Shards), len(lg.Man.Tables()))
		}
	}

	// Ingest journals open (and replay) before the listener starts: replay
	// folds acknowledged-but-unabsorbed rows into the serving estimators,
	// which is only safe while no requests hold them.
	refreshDone := make(chan struct{})
	refreshStopped := make(chan struct{})
	if *journal != "" {
		for _, name := range preloaded {
			start := time.Now()
			recovered, err := srv.EnableIngest(name)
			if err != nil {
				log.Fatalf("ingest journal for %q: %v", name, err)
			}
			log.Printf("ingest enabled for %q (journal %s, %d rows replayed in %s)",
				name, *journal, recovered, time.Since(start).Round(time.Millisecond))
		}
		if *refreshInterval > 0 {
			go func() {
				defer close(refreshStopped)
				tick := time.NewTicker(*refreshInterval)
				defer tick.Stop()
				for {
					select {
					case <-refreshDone:
						return
					case <-tick.C:
						if err := srv.RefreshStale(*refreshTuples); err != nil {
							log.Printf("background refresh: %v", err)
						}
					}
				}
			}()
		} else {
			close(refreshStopped)
		}
	} else {
		close(refreshStopped)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		log.Printf("neurocardd listening on %s (models dir %s, %d loaded)",
			*addr, *modelsDir, srv.Registry().Len())
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	// Graceful drain: stop accepting connections and wait for in-flight
	// requests to complete (bounded), then stop the estimate lanes.
	// Ordering matters — closing the lanes first would fail the very
	// requests the drain is waiting on with 503s.
	log.Printf("shutting down: draining in-flight requests")
	close(refreshDone)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	// Wait for an in-flight background refresh before Close tears down the
	// journals it may be pruning.
	<-refreshStopped
	srv.Close()
	log.Printf("drained, exiting")
}
