package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"neurocard/internal/core"
	"neurocard/internal/faultinject"
	"neurocard/internal/query"
	"neurocard/internal/schema"
	"neurocard/internal/table"
	"neurocard/internal/value"
)

// coalesceEstimator trains a small estimator for the white-box lane tests
// (the black-box suite has its own builder in package server_test).
func coalesceEstimator(t *testing.T, seed int64, tuples int) *core.Estimator {
	t.Helper()
	a := table.MustBuilder("A", []table.ColSpec{
		{Name: "x", Kind: value.KindInt},
		{Name: "year", Kind: value.KindInt},
	})
	a.MustAppend(value.Int(1), value.Int(1990))
	a.MustAppend(value.Int(2), value.Int(2000))
	a.MustAppend(value.Int(2), value.Null)
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
	sch, err := schema.New(
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
	cfg := core.DefaultConfig()
	cfg.Model.Hidden = 24
	cfg.Model.EmbedDim = 6
	cfg.Model.Blocks = 1
	cfg.PSamples = 64
	cfg.BatchSize = 64
	cfg.Seed = seed
	cfg.ContentCols = map[string][]string{"A": {"x", "year"}, "B": {"x", "y"}, "C": {"y"}}
	est, err := core.Build(sch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.Train(tuples); err != nil {
		t.Fatal(err)
	}
	return est
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// atLeastTwoProcs raises GOMAXPROCS to 2 for the test when it is lower, so a
// server built inside it gets two lanes even under -cpu 1.
func atLeastTwoProcs(t *testing.T) {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// armFaults arms the process-global fault-injection layer for the test.
func armFaults(t *testing.T, c faultinject.Config) {
	t.Helper()
	faultinject.Arm(c)
	t.Cleanup(faultinject.Disarm)
}

// do serves one request in-process and returns the recorded response.
func do(srv *Server, method, path, contentType string, body []byte, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	return rec
}

// singleJSON is the body of an unseeded single-query request.
func singleJSON(t *testing.T, model string, tables []string) []byte {
	t.Helper()
	b, err := json.Marshal(EstimateRequest{Model: model, Query: &QueryJSON{Tables: tables}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLaneSeededBitEquality sends seeded singles concurrently in both wire
// formats: every lane answer equals the estimate the query produces alone
// in-process — EstimateSeededIndexed(q, seed, 0), which runs the pool kernels
// while lanes run them inline — and the NCB answer equals the JSON answer bit
// for bit, whoever else is in flight.
func TestLaneSeededBitEquality(t *testing.T) {
	atLeastTwoProcs(t)
	srv := New(Config{ModelsDir: t.TempDir()})
	defer srv.Close()
	est := coalesceEstimator(t, 7, 256)
	if _, err := srv.reg.Install("m", "mem", est); err != nil {
		t.Fatal(err)
	}
	queries := []query.Query{
		{Tables: []string{"A", "B", "C"}},
		{Tables: []string{"A"}, Filters: []query.Filter{
			{Table: "A", Col: "year", Op: query.OpGe, Val: value.Int(1995)}}},
		{Tables: []string{"B", "C"}},
		{Tables: []string{"A", "B"}},
	}
	seed := int64(41)
	jsonEsts := make([]float64, len(queries))
	binEsts := make([]float64, len(queries))
	errs := make(chan error, 2*len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		qj, err := EncodeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(EstimateRequest{Query: &qj, Seed: &seed})
		frame := AppendBinRequest(nil, "m", &seed, []query.Query{q})
		wg.Add(2)
		go func() {
			defer wg.Done()
			rec := do(srv, "POST", "/v1/estimate", "application/json", body, nil)
			var er EstimateResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || rec.Code != http.StatusOK || er.Est == nil {
				errs <- fmt.Errorf("json query %d: %d %s", i, rec.Code, rec.Body)
				return
			}
			jsonEsts[i] = *er.Est
		}()
		go func() {
			defer wg.Done()
			rec := do(srv, "POST", "/v1/estimate", ContentTypeBinary, frame, nil)
			br, err := DecodeBinResponse(rec.Body.Bytes())
			if err != nil || rec.Code != http.StatusOK || len(br.Ests) != 1 {
				errs <- fmt.Errorf("ncb query %d: %d %v", i, rec.Code, err)
				return
			}
			binEsts[i] = br.Ests[0]
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, q := range queries {
		want, err := est.EstimateSeededIndexed(q, seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(jsonEsts[i]-want) > 1e-9*math.Max(1, want) {
			t.Fatalf("query %d: lane %.17g, alone %.17g — concurrency changed the result", i, jsonEsts[i], want)
		}
		if math.Float64bits(binEsts[i]) != math.Float64bits(jsonEsts[i]) {
			t.Fatalf("query %d: NCB %.17g != JSON %.17g", i, binEsts[i], jsonEsts[i])
		}
	}
	if n := srv.metrics.laneConcurrency.samples.Load(); n != int64(2*len(queries)) {
		t.Fatalf("lane pick-ups = %d, want one per request (%d)", n, 2*len(queries))
	}
}

// TestLaneBackpressure holds requests in a one-slot queue no lane drains and
// checks admission control: the overflow request gets 429 + Retry-After, and
// the queued request gets 503 when the server shuts down. The queued request
// names the default model as "" and the overflow request names it "m": one
// model, one server-wide bound (keyed on the raw request string they used to
// get a queue each).
func TestLaneBackpressure(t *testing.T) {
	srv := newServer(Config{ModelsDir: t.TempDir(), FuseQueue: 1})
	if _, err := srv.reg.Install("m", "mem", coalesceEstimator(t, 7, 256)); err != nil {
		t.Fatal(err)
	}
	first := make(chan int, 1)
	go func() {
		first <- do(srv, "POST", "/v1/estimate", "application/json", singleJSON(t, "", []string{"A"}), nil).Code
	}()
	waitFor(t, "queue to fill", func() bool { return len(srv.queue) == 1 })

	// Queue is full: the next request must be rejected, not queued.
	rec := do(srv, "POST", "/v1/estimate", "application/json", singleJSON(t, "m", []string{"A"}), nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated estimate: %d %s, want 429", rec.Code, rec.Body)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
		t.Fatalf("429 body %q", rec.Body)
	}

	// Shutdown fails the queued request with 503.
	srv.Close()
	if code := <-first; code != http.StatusServiceUnavailable {
		t.Fatalf("queued request on shutdown: %d, want 503", code)
	}

	// And the rejection shows up on /metrics.
	if text := do(srv, "GET", "/metrics", "", nil, nil).Body.String(); !strings.Contains(text, "neurocard_coalesce_rejected_total 1") {
		t.Fatalf("metrics missing rejection counter:\n%s", text)
	}
}

// TestLanesDoNotGrowWithModels: the lanes are the server's, not a model's —
// serving a model under a new name, by name and as the default, then
// unloading it, leaves no goroutine behind.
func TestLanesDoNotGrowWithModels(t *testing.T) {
	srv := New(Config{ModelsDir: t.TempDir()})
	defer srv.Close()
	est := coalesceEstimator(t, 7, 256)
	cycle := func(name string) {
		if _, err := srv.reg.Install(name, "mem", est); err != nil {
			t.Fatal(err)
		}
		for _, model := range []string{name, ""} {
			if rec := do(srv, "POST", "/v1/estimate", "application/json", singleJSON(t, model, []string{"A"}), nil); rec.Code != http.StatusOK {
				t.Fatalf("estimate on %q as %q: %d %s", name, model, rec.Code, rec.Body)
			}
		}
		if rec := do(srv, "DELETE", "/v1/models/"+name, "", nil, nil); rec.Code != http.StatusOK {
			t.Fatalf("unload %q: %d %s", name, rec.Code, rec.Body)
		}
	}
	cycle("m0")
	before := runtime.NumGoroutine()
	for i := 1; i <= 8; i++ {
		cycle(fmt.Sprintf("m%d", i))
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew from %d to %d across 8 load/unload cycles", before, after)
	}
}

// TestLanesRunSinglesConcurrently is the point of the lanes: with two of them
// and every kernel pass stalled, two single-query requests hold a session
// each at the same time. One flush at a time never got past one.
func TestLanesRunSinglesConcurrently(t *testing.T) {
	atLeastTwoProcs(t)
	srv := New(Config{ModelsDir: t.TempDir()})
	defer srv.Close()
	if _, err := srv.reg.Install("m", "mem", coalesceEstimator(t, 7, 256)); err != nil {
		t.Fatal(err)
	}
	armFaults(t, faultinject.Config{KernelDelayProb: 1, KernelDelay: 20 * time.Millisecond})
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rec := do(srv, "POST", "/v1/estimate", "application/json", singleJSON(t, "m", []string{"A", "B", "C"}), nil); rec.Code != http.StatusOK {
				t.Errorf("estimate: %d %s", rec.Code, rec.Body)
			}
		}()
	}
	waitFor(t, "two sessions in use", func() bool {
		return strings.Contains(do(srv, "GET", "/metrics", "", nil, nil).Body.String(),
			`neurocard_sessions_in_use{model="m"} 2`)
	})
	if text := do(srv, "GET", "/metrics", "", nil, nil).Body.String(); !strings.Contains(text, "neurocard_estimate_lanes_busy 2") {
		t.Errorf("two estimates in flight, metrics do not show two busy lanes:\n%s", text)
	}
	wg.Wait()
}

// TestLaneSkipsExpiredRequest: a request whose deadline expires while it is
// queued answers 504, and the lane that later picks it up skips it without
// checking out a session.
func TestLaneSkipsExpiredRequest(t *testing.T) {
	srv := newServer(Config{ModelsDir: t.TempDir()})
	defer srv.Close()
	est := coalesceEstimator(t, 7, 256)
	if _, err := srv.reg.Install("m", "mem", est); err != nil {
		t.Fatal(err)
	}
	rec := do(srv, "POST", "/v1/estimate", "application/json", singleJSON(t, "m", []string{"A"}),
		map[string]string{"X-Deadline-Ms": "5"})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired while queued: %d %s, want 504", rec.Code, rec.Body)
	}
	if n := srv.metrics.timeoutsTotal.Load(); n != 1 {
		t.Fatalf("timeoutsTotal = %d, want 1", n)
	}
	srv.startLanes()
	waitFor(t, "a lane to pick the expired request up", func() bool {
		return srv.metrics.laneConcurrency.samples.Load() == 1 && srv.lanesBusy.Load() == 0
	})
	if free, inUse := est.SessionPoolStats(); free+inUse != 0 {
		t.Fatalf("expired request checked out a session: pool free=%d inUse=%d", free, inUse)
	}
}

// TestLanePanicIsContained: a panic inside a lane's estimate fails that one
// request — 500, or the degraded fallback answer when one is configured — is
// counted, and the server's only lane keeps serving.
func TestLanePanicIsContained(t *testing.T) {
	for _, noFallback := range []bool{true, false} {
		t.Run(fmt.Sprintf("NoFallback=%v", noFallback), func(t *testing.T) {
			srv := New(Config{ModelsDir: t.TempDir(), Workers: 1, NoFallback: noFallback})
			defer srv.Close()
			if _, err := srv.reg.Install("m", "mem", coalesceEstimator(t, 7, 256)); err != nil {
				t.Fatal(err)
			}
			body := singleJSON(t, "m", []string{"A", "B"})
			armFaults(t, faultinject.Config{EstimatePanicProb: 1})
			rec := do(srv, "POST", "/v1/estimate", "application/json", body, nil)
			faultinject.Disarm()
			if noFallback {
				if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "panic") {
					t.Fatalf("panicking estimate: %d %s, want 500 naming the panic", rec.Code, rec.Body)
				}
			} else {
				var er EstimateResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || rec.Code != http.StatusOK || !er.Degraded || er.Est == nil {
					t.Fatalf("panicking estimate with a fallback: %d %s, want 200 degraded", rec.Code, rec.Body)
				}
			}
			if text := do(srv, "GET", "/metrics", "", nil, nil).Body.String(); !strings.Contains(text, "neurocard_recovered_panics_total 1") {
				t.Fatalf("recovered panic not counted:\n%s", text)
			}
			rec = do(srv, "POST", "/v1/estimate", "application/json", body, nil)
			var er EstimateResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || rec.Code != http.StatusOK || er.Degraded {
				t.Fatalf("estimate after the panic: %d %s, want a healthy 200", rec.Code, rec.Body)
			}
		})
	}
}

// TestLaneConcurrentHotSwap hammers the single-query path while the model
// hot-swaps under it — run with -race in CI. Every response must be a valid
// estimate from some generation; no torn state, no lost pendings.
func TestLaneConcurrentHotSwap(t *testing.T) {
	srv := New(Config{ModelsDir: t.TempDir()})
	defer srv.Close()
	gens := []*core.Estimator{coalesceEstimator(t, 7, 256), coalesceEstimator(t, 11, 256)}
	if _, err := srv.reg.Install("m", "mem", gens[0]); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	seed := int64(9)
	req, _ := json.Marshal(EstimateRequest{
		Query: &QueryJSON{Tables: []string{"A", "B", "C"}},
		Seed:  &seed,
	})
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", strings.NewReader(string(req)))
				if err != nil {
					errs <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- httpError(resp.StatusCode, body)
					return
				}
				var er EstimateResponse
				if err := json.Unmarshal(body, &er); err != nil {
					errs <- err
					return
				}
				if er.Est == nil || *er.Est <= 0 || math.IsNaN(*er.Est) || math.IsInf(*er.Est, 0) {
					errs <- httpError(resp.StatusCode, body)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 12; i++ {
			if _, err := srv.reg.Install("m", "mem", gens[i%2]); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func httpError(status int, body []byte) error {
	return fmt.Errorf("status %d: %s", status, body)
}
