package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"neurocard/internal/core"
	"neurocard/internal/faultinject"
	"neurocard/internal/query"
)

// The fault ladder runs per item, whatever the request's shape: these tests
// pin the four places the batch and single paths used to disagree, plus
// Retry-After on every transient failure.

// ladderServer starts a server whose breakers use testBreaker's deterministic
// window on clk, with one model "m" installed.
func ladderServer(t *testing.T, clk *fakeNow, noFallback bool) (*Server, *core.Estimator) {
	t.Helper()
	srv := New(Config{ModelsDir: t.TempDir(), NoFallback: noFallback})
	t.Cleanup(srv.Close)
	srv.reg.newBreaker = func() *breaker { return testBreaker(clk) }
	est := coalesceEstimator(t, 7, 256)
	if _, err := srv.reg.Install("m", "mem", est); err != nil {
		t.Fatal(err)
	}
	return srv, est
}

// tripBreaker opens the named model's breaker with model faults.
func tripBreaker(t *testing.T, srv *Server, name string) *Entry {
	t.Helper()
	e, err := srv.reg.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		e.Breaker.record(true)
	}
	if e.Breaker.currentState() != breakerOpen {
		t.Fatal("breaker did not trip")
	}
	return e
}

var ladderQueries = []QueryJSON{
	{Tables: []string{"A", "B", "C"}},
	{Tables: []string{"A", "B"}},
	{Tables: []string{"B", "C"}},
	{Tables: []string{"A"}},
}

// postBatch serves one seeded JSON batch and decodes the 200 reply.
func postBatch(t *testing.T, srv *Server, seed int64, qs []QueryJSON) EstimateResponse {
	t.Helper()
	body, _ := json.Marshal(EstimateRequest{Model: "m", Queries: qs, Seed: &seed})
	rec := do(srv, "POST", "/v1/estimate", "application/json", body, nil)
	var er EstimateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %s, want 200", rec.Code, rec.Body)
	}
	return er
}

// A half-open breaker admits its probe budget item by item: a batch sends
// exactly Probes items to the model and answers the rest from the fallback
// (or fails them positionally without one), and the probes alone close it.
func TestLadderHalfOpenAdmitsPerItem(t *testing.T) {
	for _, noFallback := range []bool{false, true} {
		t.Run(fmt.Sprintf("NoFallback=%v", noFallback), func(t *testing.T) {
			clk := &fakeNow{t: time.Unix(0, 0)}
			srv, est := ladderServer(t, clk, noFallback)
			e := tripBreaker(t, srv, "m")
			clk.Advance(time.Second) // cooldown over: the next allow goes half-open

			seed := int64(5)
			er := postBatch(t, srv, seed, ladderQueries)
			probes := e.Breaker.cfg.Probes
			for i, qj := range ladderQueries {
				if i < probes {
					q, _ := DecodeQuery(qj)
					want, err := est.EstimateSeededIndexed(q, seed, int64(i))
					if err != nil {
						t.Fatal(err)
					}
					if er.Ests[i] != want || (er.Errors != nil && er.Errors[i] != "") {
						t.Fatalf("probe item %d: %v (err %v), want the model's %.17g", i, er.Ests[i], er.Errors, want)
					}
					continue
				}
				if noFallback {
					if er.Errors == nil || !strings.Contains(er.Errors[i], "circuit open") {
						t.Fatalf("item %d past the probe budget: errors %q, want circuit open", i, er.Errors)
					}
				} else if er.Ests[i] <= 0 || !er.Degraded || er.Errors != nil {
					t.Fatalf("item %d past the probe budget: %s, want a degraded fallback answer", i, mustJSON(er))
				}
			}
			if got := e.Breaker.currentState(); got != breakerClosed {
				t.Fatalf("breaker state after %d successful probes = %d, want closed", probes, got)
			}
		})
	}
}

// A single admitted before a hot swap or an unload finishes on the entry it
// was admitted with: that generation's estimator answers it and that
// generation's breaker records the outcome.
func TestLadderSingleFinishesOnAdmittedEntry(t *testing.T) {
	for _, change := range []string{"swap", "unload"} {
		t.Run(change, func(t *testing.T) {
			srv := newServer(Config{ModelsDir: t.TempDir()})
			defer srv.Close()
			admitted, swapped := coalesceEstimator(t, 7, 256), coalesceEstimator(t, 11, 512)
			gen1, err := srv.reg.Install("m", "mem", admitted)
			if err != nil {
				t.Fatal(err)
			}
			seed := int64(3)
			q := query.Query{Tables: []string{"A", "B", "C"}}
			want, _ := admitted.EstimateSeededIndexed(q, seed, 0)
			if other, _ := swapped.EstimateSeededIndexed(q, seed, 0); other == want {
				t.Fatal("the two generations agree; the test cannot tell them apart")
			}
			body, _ := json.Marshal(EstimateRequest{Model: "m", Query: &QueryJSON{Tables: q.Tables}, Seed: &seed})
			res := make(chan EstimateResponse, 1)
			go func() {
				rec := do(srv, "POST", "/v1/estimate", "application/json", body, nil)
				var er EstimateResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || rec.Code != http.StatusOK {
					t.Errorf("queued single: %d %s, want 200", rec.Code, rec.Body)
				}
				res <- er
			}()
			waitFor(t, "the single to queue", func() bool { return len(srv.queue) == 1 })
			var gen2 *Entry
			if change == "swap" {
				if gen2, err = srv.reg.Install("m", "mem", swapped); err != nil {
					t.Fatal(err)
				}
			} else if err := srv.reg.Unload("m"); err != nil {
				t.Fatal(err)
			}
			srv.startLanes()
			er := <-res
			if er.Est == nil || *er.Est != want {
				t.Fatalf("served %s, want the admitted generation's %.17g", mustJSON(er), want)
			}
			if n := gen1.Breaker.ringLen; n != 1 {
				t.Fatalf("admitted generation's breaker holds %d outcomes, want 1", n)
			}
			if gen2 != nil && gen2.Breaker.ringLen != 0 {
				t.Fatalf("swapped-in generation's breaker holds %d outcomes, want 0", gen2.Breaker.ringLen)
			}
		})
	}
}

// A batch item that comes back NaN or panics is masked by the fallback, as
// the same query sent as a single is; the batch answers 200 degraded with no
// positional error.
func TestLadderMasksBatchModelFaults(t *testing.T) {
	for name, fault := range map[string]faultinject.Config{"nan": {EstimateNaNProb: 1}, "panic": {EstimatePanicProb: 1}} {
		t.Run(name, func(t *testing.T) {
			srv, _ := ladderServer(t, &fakeNow{t: time.Unix(0, 0)}, false)
			armFaults(t, fault)
			er := postBatch(t, srv, 1, ladderQueries[:2])
			if er.Errors != nil || !er.Degraded || len(er.Ests) != 2 || er.Ests[0] <= 0 || er.Ests[1] <= 0 {
				t.Fatalf("faulted batch = %s, want two degraded fallback answers", mustJSON(er))
			}
			faultinject.Disarm()
			body, _ := json.Marshal(EstimateRequest{Model: "m", Query: &ladderQueries[0]})
			armFaults(t, fault)
			rec := do(srv, "POST", "/v1/estimate", "application/json", body, nil)
			var single EstimateResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &single); err != nil || rec.Code != http.StatusOK || !single.Degraded {
				t.Fatalf("faulted single: %d %s, want 200 degraded", rec.Code, rec.Body)
			}
		})
	}
}

// An open breaker without a fallback fails a physical batch item by item —
// 200 with positional errors, like a logical batch routed through that shard
// — instead of failing the whole request.
func TestLadderOpenBreakerFailsBatchPositionally(t *testing.T) {
	srv, _ := ladderServer(t, &fakeNow{t: time.Unix(0, 0)}, true)
	tripBreaker(t, srv, "m")
	er := postBatch(t, srv, 1, ladderQueries[:2])
	if len(er.Errors) != 2 || len(er.Ests) != 2 {
		t.Fatalf("open-breaker batch = %s, want two positional errors", mustJSON(er))
	}
	for i, e := range er.Errors {
		if !strings.Contains(e, "circuit open") || er.Ests[i] != 0 {
			t.Fatalf("item %d: est %v error %q, want circuit open", i, er.Ests[i], e)
		}
	}
}

// Every 429 and 503 answer carries Retry-After: the open breaker without a
// fallback, a full lane queue, and a request caught in shutdown.
func TestRetryAfterOnEvery503(t *testing.T) {
	srv, _ := ladderServer(t, &fakeNow{t: time.Unix(0, 0)}, true)
	tripBreaker(t, srv, "m")
	rec := do(srv, "POST", "/v1/estimate", "application/json", singleJSON(t, "m", []string{"A"}), nil)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("open breaker, no fallback: %d Retry-After %q, want 503 + Retry-After: 1", rec.Code, rec.Header().Get("Retry-After"))
	}

	queued := newServer(Config{ModelsDir: t.TempDir(), FuseQueue: 1})
	if _, err := queued.reg.Install("m", "mem", coalesceEstimator(t, 7, 256)); err != nil {
		t.Fatal(err)
	}
	first := make(chan *http.Response, 1)
	go func() {
		first <- do(queued, "POST", "/v1/estimate", "application/json", singleJSON(t, "m", []string{"A"}), nil).Result()
	}()
	waitFor(t, "queue to fill", func() bool { return len(queued.queue) == 1 })
	rec = do(queued, "POST", "/v1/estimate", "application/json", singleJSON(t, "m", []string{"A"}), nil)
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("full queue: %d Retry-After %q, want 429 + Retry-After: 1", rec.Code, rec.Header().Get("Retry-After"))
	}
	queued.Close()
	if resp := <-first; resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("queued on shutdown: %d Retry-After %q, want 503 + Retry-After: 1", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

func mustJSON(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}
