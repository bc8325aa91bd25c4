package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"neurocard/internal/core"
	"neurocard/internal/query"
	"neurocard/internal/schema"
	"neurocard/internal/server"
	"neurocard/internal/table"
	"neurocard/internal/value"
)

// figure4 is the paper's running example with an extra content column, the
// same schema the core checkpoint tests use.
func figure4(t *testing.T) *schema.Schema {
	t.Helper()
	a := table.MustBuilder("A", []table.ColSpec{
		{Name: "x", Kind: value.KindInt},
		{Name: "year", Kind: value.KindInt},
	})
	a.MustAppend(value.Int(1), value.Int(1990))
	a.MustAppend(value.Int(2), value.Int(2000))
	a.MustAppend(value.Int(2), value.Null) // NULL year: exercised by IS NULL queries
	b := table.MustBuilder("B", []table.ColSpec{
		{Name: "x", Kind: value.KindInt}, {Name: "y", Kind: value.KindInt},
	})
	b.MustAppend(value.Int(1), value.Int(1))
	b.MustAppend(value.Int(2), value.Int(2))
	b.MustAppend(value.Int(2), value.Int(3))
	c := table.MustBuilder("C", []table.ColSpec{{Name: "y", Kind: value.KindInt}})
	c.MustAppend(value.Int(3))
	c.MustAppend(value.Int(3))
	c.MustAppend(value.Int(4))
	s, err := schema.New(
		[]*table.Table{a.MustBuild(), b.MustBuild(), c.MustBuild()},
		"A",
		[]schema.Edge{
			{LeftTable: "A", LeftCol: "x", RightTable: "B", RightCol: "x"},
			{LeftTable: "B", LeftCol: "y", RightTable: "C", RightCol: "y"},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// buildEstimator trains a small estimator for serving tests.
func buildEstimator(t *testing.T, seed int64, tuples int) *core.Estimator {
	t.Helper()
	s := figure4(t)
	cfg := core.DefaultConfig()
	cfg.Model.Hidden = 24
	cfg.Model.EmbedDim = 6
	cfg.Model.Blocks = 1
	cfg.PSamples = 64
	cfg.BatchSize = 64
	cfg.Seed = seed
	cfg.ContentCols = map[string][]string{"A": {"x", "year"}, "B": {"x", "y"}, "C": {"y"}}
	est, err := core.Build(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.Train(tuples); err != nil {
		t.Fatal(err)
	}
	return est
}

// writeCheckpoint saves an estimator under dir/<name>.ckpt.
func writeCheckpoint(t *testing.T, dir, name string, est *core.Estimator) string {
	t.Helper()
	path := filepath.Join(dir, name+".ckpt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := core.SaveCheckpoint(est, f); err != nil {
		t.Fatal(err)
	}
	return path
}

// serveTest stands up a server whose models dir is a fresh temp dir.
func serveTest(t *testing.T) (*server.Server, *httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	srv := server.New(server.Config{ModelsDir: dir, Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, dir
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func ptrInt(v int64) *int64 { return &v }

func TestServeEstimateRoundTrip(t *testing.T) {
	srv, ts, dir := serveTest(t)
	orig := buildEstimator(t, 7, 512)
	writeCheckpoint(t, dir, "fig4", orig)

	// Load via the HTTP API (conventional path resolution).
	resp, body := post(t, ts.URL+"/v1/models/fig4/load", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load: %d %s", resp.StatusCode, body)
	}
	var info server.ModelInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if !info.Default || info.Generation != 1 || info.Tables != 3 {
		t.Fatalf("load info = %+v", info)
	}
	if info.SamplesSeen == 0 {
		t.Fatalf("load response reports samples_seen 0 for a trained model: %+v", info)
	}
	if srv.Registry().Len() != 1 {
		t.Fatalf("registry has %d models", srv.Registry().Len())
	}

	// Seeded single estimate must equal the original estimator's result
	// through the same seeded path — the serving-side half of checkpoint
	// round-trip equivalence.
	seed := int64(1234)
	resp, body = post(t, ts.URL+"/v1/estimate", server.EstimateRequest{
		Query: &server.QueryJSON{Tables: []string{"A", "B", "C"},
			Filters: []server.FilterJSON{{Table: "A", Col: "year", Op: ">=", Int: ptrInt(1995)}}},
		Seed: &seed,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate: %d %s", resp.StatusCode, body)
	}
	var er server.EstimateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Est == nil || er.Count != 1 {
		t.Fatalf("estimate response = %s", body)
	}
	want, err := orig.EstimateSeededIndexed(query.Query{
		Tables:  []string{"A", "B", "C"},
		Filters: []query.Filter{{Table: "A", Col: "year", Op: query.OpGe, Val: value.Int(1995)}},
	}, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(*er.Est-want) > 1e-9*math.Max(1, want) {
		t.Fatalf("served estimate %.17g, want %.17g", *er.Est, want)
	}
	if *er.Est <= 0 || math.IsInf(*er.Est, 0) || math.IsNaN(*er.Est) {
		t.Fatalf("served estimate %g is not finite positive", *er.Est)
	}
}

func TestServeBatchSeededDeterminism(t *testing.T) {
	_, ts, dir := serveTest(t)
	writeCheckpoint(t, dir, "fig4", buildEstimator(t, 7, 512))
	post(t, ts.URL+"/v1/models/fig4/load", nil)

	seed := int64(99)
	req := server.EstimateRequest{
		Queries: []server.QueryJSON{
			{Tables: []string{"A", "B", "C"}},
			{Tables: []string{"B"}},
			{Tables: []string{"B", "C"}},
			{Tables: []string{"A", "B"},
				Filters: []server.FilterJSON{{Table: "A", Col: "year", Op: "=", Int: ptrInt(2000)}}},
			{Tables: []string{"A"},
				Filters: []server.FilterJSON{{Table: "A", Col: "x", Op: "IN", Set: []any{float64(1), float64(2)}}}},
		},
		Seed: &seed,
	}
	var first []float64
	for trial := 0; trial < 3; trial++ {
		resp, body := post(t, ts.URL+"/v1/estimate", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch estimate: %d %s", resp.StatusCode, body)
		}
		var er server.EstimateResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatal(err)
		}
		if er.Count != len(req.Queries) || len(er.Ests) != len(req.Queries) {
			t.Fatalf("batch response = %s", body)
		}
		for i, est := range er.Ests {
			if est <= 0 || math.IsNaN(est) || math.IsInf(est, 0) {
				t.Fatalf("batch estimate %d = %g", i, est)
			}
		}
		if trial == 0 {
			first = er.Ests
			continue
		}
		for i := range first {
			if er.Ests[i] != first[i] {
				t.Fatalf("trial %d query %d: %g != %g (seeded batches must be deterministic)",
					trial, i, er.Ests[i], first[i])
			}
		}
	}
}

func TestServeHotSwapAndModels(t *testing.T) {
	_, ts, dir := serveTest(t)
	writeCheckpoint(t, dir, "m", buildEstimator(t, 7, 512))
	resp, body := post(t, ts.URL+"/v1/models/m/load", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load 1: %d %s", resp.StatusCode, body)
	}

	// Swap in a differently-trained model under the same name.
	writeCheckpoint(t, dir, "m", buildEstimator(t, 11, 1024))
	resp, body = post(t, ts.URL+"/v1/models/m/load", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load 2: %d %s", resp.StatusCode, body)
	}
	var info server.ModelInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Generation != 2 || !info.Default {
		t.Fatalf("after swap: %+v", info)
	}

	// Second model under another name, via explicit path.
	other := writeCheckpoint(t, dir, "other-src", buildEstimator(t, 3, 256))
	resp, body = post(t, ts.URL+"/v1/models/aux/load", server.LoadRequest{Path: other})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load aux: %d %s", resp.StatusCode, body)
	}

	resp, body = get(t, ts.URL+"/v1/models")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("models: %d", resp.StatusCode)
	}
	var list server.ModelsResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Models) != 2 {
		t.Fatalf("models = %s", body)
	}
	byName := map[string]server.ModelInfo{}
	for _, mi := range list.Models {
		byName[mi.Name] = mi
	}
	if !byName["m"].Default || byName["aux"].Default {
		t.Fatalf("default flags wrong: %s", body)
	}
	if byName["m"].Generation != 2 || byName["aux"].Generation != 1 {
		t.Fatalf("generations wrong: %s", body)
	}

	// Estimate against the non-default model by name.
	resp, body = post(t, ts.URL+"/v1/estimate", server.EstimateRequest{
		Model: "aux",
		Query: &server.QueryJSON{Tables: []string{"B"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate aux: %d %s", resp.StatusCode, body)
	}
}

func TestServeErrors(t *testing.T) {
	_, ts, dir := serveTest(t)

	// No model loaded yet.
	resp, _ := post(t, ts.URL+"/v1/estimate", server.EstimateRequest{
		Query: &server.QueryJSON{Tables: []string{"A"}}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("no-model estimate: %d", resp.StatusCode)
	}

	writeCheckpoint(t, dir, "m", buildEstimator(t, 7, 256))
	post(t, ts.URL+"/v1/models/m/load", nil)

	cases := []struct {
		name string
		body any
		want int
	}{
		{"neither-query-nor-queries", server.EstimateRequest{}, http.StatusBadRequest},
		{"both-query-and-queries", server.EstimateRequest{
			Query:   &server.QueryJSON{Tables: []string{"A"}},
			Queries: []server.QueryJSON{{Tables: []string{"A"}}}}, http.StatusBadRequest},
		{"unknown-model", server.EstimateRequest{Model: "nope",
			Query: &server.QueryJSON{Tables: []string{"A"}}}, http.StatusNotFound},
		{"unknown-op", server.EstimateRequest{
			Query: &server.QueryJSON{Tables: []string{"A"},
				Filters: []server.FilterJSON{{Table: "A", Col: "year", Op: "LIKE", Int: ptrInt(1)}}}},
			http.StatusBadRequest},
		{"missing-value", server.EstimateRequest{
			Query: &server.QueryJSON{Tables: []string{"A"},
				Filters: []server.FilterJSON{{Table: "A", Col: "year", Op: "="}}}},
			http.StatusBadRequest},
		{"is-null-with-value", server.EstimateRequest{
			Query: &server.QueryJSON{Tables: []string{"A"},
				Filters: []server.FilterJSON{{Table: "A", Col: "year", Op: "IS NULL", Int: ptrInt(1)}}}},
			http.StatusBadRequest},
		{"between-missing-hi", server.EstimateRequest{
			Query: &server.QueryJSON{Tables: []string{"A"},
				Filters: []server.FilterJSON{{Table: "A", Col: "year", Op: "BETWEEN", Int: ptrInt(1990)}}}},
			http.StatusBadRequest},
		{"nested-or", server.EstimateRequest{
			Query: &server.QueryJSON{Tables: []string{"A"},
				Filters: []server.FilterJSON{{Table: "A", Col: "year", Op: "=", Int: ptrInt(1990),
					Or: []server.FilterJSON{{Op: "=", Int: ptrInt(2000),
						Or: []server.FilterJSON{{Op: "IS NULL"}}}}}}}},
			http.StatusBadRequest},
		{"or-cross-column", server.EstimateRequest{
			Query: &server.QueryJSON{Tables: []string{"A"},
				Filters: []server.FilterJSON{{Table: "A", Col: "year", Op: "=", Int: ptrInt(1990),
					Or: []server.FilterJSON{{Col: "x", Op: "=", Int: ptrInt(1)}}}}}},
			http.StatusBadRequest},
		{"disconnected-join", server.EstimateRequest{
			Query: &server.QueryJSON{Tables: []string{"A", "C"}}}, http.StatusBadRequest},
		{"unknown-table", server.EstimateRequest{
			Query: &server.QueryJSON{Tables: []string{"Z"}}}, http.StatusBadRequest},
		{"unmodeled-filter-column", server.EstimateRequest{
			Query: &server.QueryJSON{Tables: []string{"A"},
				Filters: []server.FilterJSON{{Table: "A", Col: "nope", Op: "=", Int: ptrInt(1)}}}},
			http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := post(t, ts.URL+"/v1/estimate", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (want %d): %s", tc.name, resp.StatusCode, tc.want, body)
		}
		var er struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %q", tc.name, body)
		}
	}

	// Unknown JSON fields are rejected (catches client drift early).
	resp, _ = post(t, ts.URL+"/v1/estimate", map[string]any{
		"query": map[string]any{"tables": []string{"A"}}, "smaples": 12})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: %d", resp.StatusCode)
	}
	// Batch concurrency is Config.Workers; a request cannot set it.
	resp, _ = post(t, ts.URL+"/v1/estimate", map[string]any{
		"queries": []any{map[string]any{"tables": []string{"A"}}}, "workers": 2})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("workers field: %d, want 400", resp.StatusCode)
	}

	// Path traversal in model names is rejected.
	resp, _ = post(t, ts.URL+"/v1/models/..%2Fevil/load", nil)
	if resp.StatusCode == http.StatusOK {
		t.Error("traversal model name accepted")
	}

	// Missing checkpoint file.
	resp, _ = post(t, ts.URL+"/v1/models/ghost/load", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing checkpoint: %d", resp.StatusCode)
	}
}

func TestServeReadyzAndMetrics(t *testing.T) {
	_, ts, dir := serveTest(t)
	resp, body := get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty readyz: %d, want 503", resp.StatusCode)
	}
	var h struct {
		Ready  bool `json:"ready"`
		Models int  `json:"models"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Ready || h.Models != 0 {
		t.Fatalf("empty readyz = %s", body)
	}
	// /livez and /readyz are the health probes; /healthz is not served.
	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/healthz: %d, want 404", resp.StatusCode)
	}

	writeCheckpoint(t, dir, "m", buildEstimator(t, 7, 256))
	post(t, ts.URL+"/v1/models/m/load", nil)
	for i := 0; i < 3; i++ {
		post(t, ts.URL+"/v1/estimate", server.EstimateRequest{
			Query: &server.QueryJSON{Tables: []string{"A", "B"}}})
	}
	post(t, ts.URL+"/v1/estimate", server.EstimateRequest{}) // one error

	resp, body = get(t, ts.URL+"/readyz")
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !h.Ready || h.Models != 1 {
		t.Fatalf("loaded readyz = %d %s", resp.StatusCode, body)
	}

	_, body = get(t, ts.URL+"/metrics")
	text := string(body)
	for _, want := range []string{
		"neurocard_estimate_queries_total 3",
		"neurocard_estimate_requests_total 4",
		"neurocard_estimate_errors_total 1",
		"neurocard_model_loads_total 1",
		// All four requests — including the errored one — are observed: the
		// latency histogram must see the slow error tail.
		"neurocard_estimate_latency_seconds_count 4",
		// Latency summary: the SLO-facing quantile view of the same samples.
		`neurocard_request_latency_seconds{quantile="0.5"}`,
		`neurocard_request_latency_seconds{quantile="0.95"}`,
		`neurocard_request_latency_seconds{quantile="0.99"}`,
		"neurocard_request_latency_seconds_count 4",
		// SLO gauges: observed p99, configured target, and the breach flag.
		"neurocard_slo_p99_latency_seconds",
		"neurocard_slo_p99_target_seconds 0.025",
		"neurocard_slo_p99_breached",
		// Lane instruments: three sequential single requests = three lane
		// pick-ups, each with one lane busy and one queue-wait observation.
		`neurocard_fused_batch_size_bucket{le="1"} 3`,
		"neurocard_fused_batch_size_count 3",
		"neurocard_coalesce_queue_depth_bucket",
		"neurocard_coalesce_window_seconds_count 3",
		"neurocard_coalesce_rejected_total 0",
		"neurocard_coalesce_queue_depth_current 0",
		"neurocard_estimate_lanes ",
		"neurocard_estimate_lanes_busy 0",
		"neurocard_binary_requests_total 0",
		`neurocard_sessions_free{model="m"}`,
		`neurocard_sessions_in_use{model="m"} 0`,
		"neurocard_inflight_requests 0",
		// Three estimates of one query shape: first compiles, rest hit.
		`neurocard_plan_cache_hits_total{model="m"} 2`,
		`neurocard_plan_cache_misses_total{model="m"} 1`,
		`neurocard_plan_cache_evictions_total{model="m"} 0`,
		`neurocard_plan_cache_size{model="m"} 1`,
		`neurocard_plan_cache_capacity{model="m"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// richQuery is a disjunctive, null-aware query exercising every new wire op.
func richQuery() query.Query {
	return query.Query{
		Tables: []string{"A", "B"},
		Filters: []query.Filter{
			{Table: "A", Col: "year", Op: query.OpGe, Val: value.Int(1995),
				Or: []query.Filter{{Table: "A", Col: "year", Op: query.OpIsNull}}},
			{Table: "B", Col: "y", Op: query.OpNotIn, Set: []value.Value{value.Int(2)}},
			{Table: "A", Col: "x", Op: query.OpBetween, Val: value.Int(1), Hi: value.Int(2)},
			{Table: "B", Col: "x", Op: query.OpNeq, Val: value.Int(99)},
		},
	}
}

// TestWireRoundTripNewOps checks that disjunctive and null-aware queries
// survive the HTTP JSON wire format bit-identically: encode → JSON → decode
// → encode reproduces the exact same bytes, and the decoded query is the
// original.
func TestWireRoundTripNewOps(t *testing.T) {
	q := richQuery()
	qj, err := server.EncodeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	wire1, err := json.Marshal(qj)
	if err != nil {
		t.Fatal(err)
	}
	var back server.QueryJSON
	if err := json.Unmarshal(wire1, &back); err != nil {
		t.Fatal(err)
	}
	dec, err := server.DecodeQuery(back)
	if err != nil {
		t.Fatal(err)
	}
	if dec.String() != q.String() {
		t.Fatalf("decoded query %s, want %s", dec, q)
	}
	qj2, err := server.EncodeQuery(dec)
	if err != nil {
		t.Fatal(err)
	}
	wire2, err := json.Marshal(qj2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire1, wire2) {
		t.Fatalf("wire round trip not bit-identical:\n  first:  %s\n  second: %s", wire1, wire2)
	}
}

// TestServeNewOpsEndToEnd sends OR / IS NULL / BETWEEN / NOT IN queries
// through the HTTP API and checks the served estimates equal the in-process
// seeded path exactly.
func TestServeNewOpsEndToEnd(t *testing.T) {
	_, ts, dir := serveTest(t)
	orig := buildEstimator(t, 7, 512)
	writeCheckpoint(t, dir, "fig4", orig)
	post(t, ts.URL+"/v1/models/fig4/load", nil)

	queries := []query.Query{
		richQuery(),
		{Tables: []string{"A"}, Filters: []query.Filter{{Table: "A", Col: "year", Op: query.OpIsNull}}},
		{Tables: []string{"A"}, Filters: []query.Filter{{Table: "A", Col: "year", Op: query.OpIsNotNull}}},
	}
	seed := int64(77)
	for i, q := range queries {
		qj, err := server.EncodeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		resp, body := post(t, ts.URL+"/v1/estimate", server.EstimateRequest{Query: &qj, Seed: &seed})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d (%s): %d %s", i, q, resp.StatusCode, body)
		}
		var er server.EstimateResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatal(err)
		}
		want, err := orig.EstimateSeededIndexed(q, seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		if er.Est == nil || math.Abs(*er.Est-want) > 1e-9*math.Max(1, want) {
			t.Fatalf("query %d (%s): served %v, want %.17g", i, q, er.Est, want)
		}
	}
}

// TestServeSeededBatchDeterminismUnderSwap checks EstimateBatchSeeded stays
// deterministic while POST /v1/models/{name}/load hot-swaps concurrently —
// the seeded-path extension of TestServeConcurrentSwap, run under -race in
// CI. Every generation loads the same checkpoint, so seeded batch results
// must be bit-identical no matter which generation serves them or how the
// swap interleaves.
func TestServeSeededBatchDeterminismUnderSwap(t *testing.T) {
	_, ts, dir := serveTest(t)
	writeCheckpoint(t, dir, "m", buildEstimator(t, 7, 512))
	post(t, ts.URL+"/v1/models/m/load", nil)

	seed := int64(321)
	rq, err := server.EncodeQuery(richQuery())
	if err != nil {
		t.Fatal(err)
	}
	req := server.EstimateRequest{
		Queries: []server.QueryJSON{
			rq,
			{Tables: []string{"A", "B", "C"}},
			{Tables: []string{"A"},
				Filters: []server.FilterJSON{{Table: "A", Col: "year", Op: "IS NULL"}}},
		},
		Seed: &seed,
	}
	resp, body := post(t, ts.URL+"/v1/estimate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline batch: %d %s", resp.StatusCode, body)
	}
	var baseline server.EstimateResponse
	if err := json.Unmarshal(body, &baseline); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 12; i++ {
			resp, body := post(t, ts.URL+"/v1/models/m/load", nil)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("swap: %d %s", resp.StatusCode, body)
				return
			}
		}
	}()
	for k := 0; k < 3; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				resp, body := post(t, ts.URL+"/v1/estimate", req)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("seeded batch during swap: %d %s", resp.StatusCode, body)
					return
				}
				var er server.EstimateResponse
				if err := json.Unmarshal(body, &er); err != nil {
					errs <- err
					return
				}
				for j := range baseline.Ests {
					if er.Ests[j] != baseline.Ests[j] {
						errs <- fmt.Errorf("query %d: %g != %g during hot swap (seeded batches must be deterministic)",
							j, er.Ests[j], baseline.Ests[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServeConcurrentSwap hammers the estimate endpoint while hot-swapping
// the model under it — run under -race in CI. Every response must be a valid
// estimate from either generation; no request may observe a torn registry.
func TestServeConcurrentSwap(t *testing.T) {
	_, ts, dir := serveTest(t)
	writeCheckpoint(t, dir, "m", buildEstimator(t, 7, 256))
	post(t, ts.URL+"/v1/models/m/load", nil)
	writeCheckpoint(t, dir, "m", buildEstimator(t, 11, 256))

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, body := post(t, ts.URL+"/v1/estimate", server.EstimateRequest{
					Query: &server.QueryJSON{Tables: []string{"A", "B", "C"}}})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("estimate during swap: %d %s", resp.StatusCode, body)
					return
				}
			}
		}()
	}
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				resp, body := post(t, ts.URL+"/v1/models/m/load", nil)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("swap: %d %s", resp.StatusCode, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
