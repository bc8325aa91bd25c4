package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"neurocard/internal/core"
	"neurocard/internal/datagen"
	"neurocard/internal/query"
	"neurocard/internal/server"
	"neurocard/internal/workload"
)

// ServeLoadResult carries the measured serving numbers for the benchmark
// gate, alongside the formatted report.
type ServeLoadResult struct {
	SingleQPS float64 // queries/sec, closed loop, batch size 1, JSON
	BinaryQPS float64 // queries/sec, closed loop, batch size 1, binary wire
	BatchQPS  float64 // queries/sec, closed loop, batched requests, JSON
	Report    string
}

// ServeLoad is the end-to-end serving experiment: train a NeuroCard, write a
// full-estimator checkpoint, load it into the HTTP serving daemon's handler
// (in-process listener), and drive a closed-loop load test — o.ServeClients
// concurrent clients, each issuing the next request the moment its previous
// one returns. Phase one sends single-query requests; phase two batches
// o.ServeBatch queries per request (the optimizer-traffic shape). Before
// measuring, it verifies the served estimates match the in-process
// estimator's to 1e-9 — the load test doubles as a checkpoint round-trip
// check over the wire.
func ServeLoad(o Options) (*ServeLoadResult, error) {
	d, err := datagen.JOBLight(datagen.Config{Seed: o.Seed, Scale: o.DataScale})
	if err != nil {
		return nil, err
	}
	// Serving cost does not depend on training quality; a short training run
	// keeps -exp serve in seconds while still exercising trained weights.
	tuples := o.TrainTuples
	if tuples > 20*o.BatchSize {
		tuples = 20 * o.BatchSize
	}
	est, _, err := BuildNeuroCard(d, o.Model, tuples, o)
	if err != nil {
		return nil, err
	}

	dir, err := os.MkdirTemp("", "neurocard-serve")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "joblight.ckpt")
	f, err := os.Create(ckpt)
	if err != nil {
		return nil, err
	}
	if err := core.SaveCheckpoint(est, f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}

	srv := server.New(server.Config{ModelsDir: dir, Workers: o.EvalWorkers})
	defer srv.Close()
	if _, err := srv.Registry().Load("joblight", ckpt); err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	wl, err := workload.JOBLight(d, o.Seed)
	if err != nil {
		return nil, err
	}
	wire := make([]server.QueryJSON, len(wl.Queries))
	for i, lq := range wl.Queries {
		if wire[i], err = server.EncodeQuery(lq.Query); err != nil {
			return nil, err
		}
	}

	queries := make([]query.Query, len(wl.Queries))
	for i, lq := range wl.Queries {
		queries[i] = lq.Query
	}

	// Wire-level equivalence check: served seeded estimates must equal the
	// original estimator's to 1e-9, and the binary protocol must agree with
	// JSON bit-for-bit (both run on the estimate lanes' inline kernels, so
	// this also certifies that lane concurrency does not perturb results).
	client := ts.Client()
	nCheck := 8
	if nCheck > len(wire) {
		nCheck = len(wire)
	}
	for i := 0; i < nCheck; i++ {
		seed := int64(4242)
		got, err := postEstimate(client, ts.URL, server.EstimateRequest{
			Query: &wire[i], Seed: &seed,
		})
		if err != nil {
			return nil, fmt.Errorf("serve-load equivalence query %d: %w", i, err)
		}
		want, err := est.EstimateSeededIndexed(wl.Queries[i].Query, seed, 0)
		if err != nil {
			return nil, err
		}
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			return nil, fmt.Errorf("serve-load equivalence query %d: served %.17g, in-process %.17g", i, got, want)
		}
		frame := server.AppendBinRequest(nil, "", &seed, queries[i:i+1])
		bgot, err := postBinEstimate(client, ts.URL, frame)
		if err != nil {
			return nil, fmt.Errorf("serve-load binary equivalence query %d: %w", i, err)
		}
		if bgot != got {
			return nil, fmt.Errorf("serve-load binary equivalence query %d: binary %.17g, json %.17g", i, bgot, got)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Serving load test (closed loop, %d clients, JOB-light scale %g)\n",
		o.ServeClients, o.DataScale)
	fmt.Fprintf(&b, "%-18s %10s %10s %12s %12s %12s %12s\n",
		"mode", "requests", "q/s", "p50", "p95", "p99", "max")
	row := func(mode string, s *loadStats) {
		fmt.Fprintf(&b, "%-18s %10d %10.1f %12s %12s %12s %12s\n",
			mode, s.requests, s.qps, s.p50, s.p95, s.p99, s.max)
	}

	res := &ServeLoadResult{}
	single, err := closedLoop(client, ts.URL, wire, queries, protoJSON, 1, o.ServeClients, o.ServeRequests)
	if err != nil {
		return nil, err
	}
	res.SingleQPS = single.qps
	row("single", single)

	binSingle, err := closedLoop(client, ts.URL, wire, queries, protoBinary, 1, o.ServeClients, o.ServeRequests)
	if err != nil {
		return nil, err
	}
	res.BinaryQPS = binSingle.qps
	row("single-bin", binSingle)

	batchReqs := o.ServeRequests / o.ServeBatch
	if batchReqs < o.ServeClients {
		batchReqs = o.ServeClients
	}
	batch, err := closedLoop(client, ts.URL, wire, queries, protoJSON, o.ServeBatch, o.ServeClients, batchReqs)
	if err != nil {
		return nil, err
	}
	res.BatchQPS = batch.qps
	row(fmt.Sprintf("batch-%d", o.ServeBatch), batch)

	binBatch, err := closedLoop(client, ts.URL, wire, queries, protoBinary, o.ServeBatch, o.ServeClients, batchReqs)
	if err != nil {
		return nil, err
	}
	row(fmt.Sprintf("batch-%d-bin", o.ServeBatch), binBatch)

	// The load test round-robins a fixed workload, so after the first pass
	// every estimate should hit the compiled-plan cache; report the rate so
	// a keying or eviction regression is visible right in `-exp serve`.
	if entry, err := srv.Registry().Get(""); err == nil {
		s := entry.Est.PlanCacheStats()
		if total := s.Hits + s.Misses; total > 0 {
			fmt.Fprintf(&b, "plan cache: %d hits / %d misses (%.1f%% hit rate, %d cached)\n",
				s.Hits, s.Misses, 100*float64(s.Hits)/float64(total), s.Size)
		}
	}

	res.Report = b.String()
	return res, nil
}

// loadStats aggregates one closed-loop phase.
type loadStats struct {
	requests           int
	qps                float64
	p50, p95, p99, max time.Duration
}

// wireProto selects the request encoding a closed-loop phase drives.
type wireProto int

const (
	protoJSON wireProto = iota
	protoBinary
)

// closedLoop drives `clients` concurrent workers, each POSTing its next
// request (batchSize queries round-robin from the workload) as soon as the
// previous response arrives, until `requests` total requests have been
// issued. Request latencies are client-observed wall times. Binary workers
// reuse one frame buffer across requests, so the client side of the binary
// phase allocates nothing per request beyond the HTTP machinery.
func closedLoop(client *http.Client, baseURL string, wire []server.QueryJSON, queries []query.Query, proto wireProto, batchSize, clients, requests int) (*loadStats, error) {
	if clients < 1 {
		clients = 1
	}
	var next atomic.Int64
	lats := make([]time.Duration, requests)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var frame []byte
			qs := make([]query.Query, batchSize)
			for {
				i := int(next.Add(1)) - 1
				if i >= requests {
					return
				}
				var err error
				t0 := time.Now()
				if proto == protoBinary {
					for j := 0; j < batchSize; j++ {
						qs[j] = queries[(i*batchSize+j)%len(queries)]
					}
					frame = server.AppendBinRequest(frame[:0], "", nil, qs)
					_, err = postBinEstimate(client, baseURL, frame)
				} else {
					var req server.EstimateRequest
					if batchSize == 1 {
						req.Query = &wire[i%len(wire)]
					} else {
						req.Queries = make([]server.QueryJSON, batchSize)
						for j := 0; j < batchSize; j++ {
							req.Queries[j] = wire[(i*batchSize+j)%len(wire)]
						}
					}
					_, err = postEstimate(client, baseURL, req)
				}
				if err != nil {
					errs[c] = fmt.Errorf("request %d: %w", i, err)
					return
				}
				lats[i] = time.Since(t0)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return &loadStats{
		requests: requests,
		qps:      float64(requests*batchSize) / elapsed.Seconds(),
		p50:      sorted[len(sorted)/2],
		p95:      sorted[len(sorted)*95/100],
		p99:      sorted[len(sorted)*99/100],
		max:      sorted[len(sorted)-1],
	}, nil
}

// postBinEstimate issues one binary-protocol estimate request and returns
// the first estimate.
func postBinEstimate(client *http.Client, baseURL string, frame []byte) (float64, error) {
	resp, err := client.Post(baseURL+"/v1/estimate", server.ContentTypeBinary, bytes.NewReader(frame))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		var er struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(body, &er)
		return 0, fmt.Errorf("status %d: %s", resp.StatusCode, er.Error)
	}
	br, err := server.DecodeBinResponse(body)
	if err != nil {
		return 0, err
	}
	if len(br.Ests) == 0 {
		return 0, fmt.Errorf("empty binary estimate response")
	}
	for i, e := range br.Errs {
		if e != "" {
			return 0, fmt.Errorf("query %d: %s", i, e)
		}
	}
	return br.Ests[0], nil
}

// postEstimate issues one estimate request and returns the first estimate.
func postEstimate(client *http.Client, baseURL string, req server.EstimateRequest) (float64, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	resp, err := client.Post(baseURL+"/v1/estimate", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var er struct {
		Est   *float64  `json:"est"`
		Ests  []float64 `json:"ests"`
		Error string    `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", resp.StatusCode, er.Error)
	}
	switch {
	case er.Est != nil:
		return *er.Est, nil
	case len(er.Ests) > 0:
		return er.Ests[0], nil
	default:
		return 0, fmt.Errorf("empty estimate response")
	}
}
