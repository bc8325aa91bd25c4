package server_test

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"neurocard/internal/core"
	"neurocard/internal/faultinject"
	"neurocard/internal/query"
	"neurocard/internal/schema"
	"neurocard/internal/server"
	"neurocard/internal/shard"
)

// ---- fixture: a two-shard fleet over the fig4 schema ----

// trainShard trains a small estimator over the sub-schema induced by tables.
func trainShard(t *testing.T, sch *schema.Schema, tables []string, seed int64, tuples int) *core.Estimator {
	t.Helper()
	sub, err := sch.SubSchema(tables)
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
	all := map[string][]string{"A": {"x", "year"}, "B": {"x", "y"}, "C": {"y"}}
	cc := make(map[string][]string)
	for _, tb := range tables {
		cc[tb] = all[tb]
	}
	cfg.ContentCols = cc
	est, err := core.Build(sub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.Train(tuples); err != nil {
		t.Fatal(err)
	}
	return est
}

// buildFleet partitions fig4 into {A,B} and {C}, trains one estimator per
// shard, writes their checkpoints and the manifest into dir, and returns the
// manifest plus the in-memory estimators (the ground truth the served
// composition is checked against).
func buildFleet(t *testing.T, dir string) (*shard.Manifest, map[string]*core.Estimator) {
	t.Helper()
	sch := figure4(t)
	man, err := shard.Build(sch, "fleet", [][]string{{"A", "B"}, {"C"}})
	if err != nil {
		t.Fatal(err)
	}
	ests := make(map[string]*core.Estimator)
	for i, sp := range man.Shards {
		est := trainShard(t, sch, sp.Tables, int64(11+i), 256)
		ests[sp.Name] = est
		writeCheckpoint(t, dir, sp.Name, est)
	}
	if err := man.Write(shard.ManifestPath(dir, "fleet")); err != nil {
		t.Fatal(err)
	}
	return man, ests
}

func loadFleet(t *testing.T, ts *httptest.Server) server.ModelInfo {
	t.Helper()
	resp, body := post(t, ts.URL+"/v1/models/fleet/load", server.LoadRequest{Manifest: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("manifest load: %d %s", resp.StatusCode, body)
	}
	var info server.ModelInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	return info
}

// composedExpected replays the planner by hand: plan the query, run every
// sub-query through its shard's seeded path, multiply with the plan factor —
// the value the server must reproduce bit-for-bit modulo float rounding.
func composedExpected(t *testing.T, man *shard.Manifest, ests map[string]*core.Estimator,
	q query.Query, seed, idx int64) float64 {
	t.Helper()
	pl, err := shard.NewPlanner(man)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := pl.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	est := plan.Factor
	for _, sub := range plan.Subs {
		v, err := ests[sub.Shard].EstimateSeededIndexed(sub.Query, seed, idx)
		if err != nil {
			t.Fatal(err)
		}
		est *= v
	}
	return est
}

func approxEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

var (
	crossQ  = server.QueryJSON{Tables: []string{"A", "B", "C"}, Filters: []server.FilterJSON{{Table: "A", Col: "year", Op: ">=", Int: ptrInt(1995)}}}
	s0OnlyQ = server.QueryJSON{Tables: []string{"A", "B"}, Filters: []server.FilterJSON{{Table: "B", Col: "y", Op: "<=", Int: ptrInt(2)}}}
	s1OnlyQ = server.QueryJSON{Tables: []string{"C"}}
)

func mustDecode(t *testing.T, qj server.QueryJSON) query.Query {
	t.Helper()
	q, err := server.DecodeQuery(qj)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// ---- manifest load, routing, composition ----

func TestLogicalManifestLoadAndRouting(t *testing.T) {
	srv, ts, dir := serveTest(t)
	man, ests := buildFleet(t, dir)

	info := loadFleet(t, ts)
	if info.Kind != "logical" || info.Name != "fleet" || info.Tables != 3 || info.Generation != 1 {
		t.Fatalf("manifest load info = %+v", info)
	}
	if len(info.Shards) != 2 || info.Shards[0] != "fleet-s0" || info.Shards[1] != "fleet-s1" {
		t.Fatalf("shards = %v", info.Shards)
	}
	// The two shard models were loaded alongside the logical entry.
	if srv.Registry().Len() != 2 {
		t.Fatalf("registry has %d models, want the 2 shards", srv.Registry().Len())
	}

	// /v1/models lists the shards and the logical model, kinds distinguished.
	resp, body := get(t, ts.URL+"/v1/models")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("models: %d", resp.StatusCode)
	}
	var list server.ModelsResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]string{}
	for _, mi := range list.Models {
		kinds[mi.Name] = mi.Kind
	}
	if kinds["fleet"] != "logical" || kinds["fleet-s0"] != "model" || kinds["fleet-s1"] != "model" {
		t.Fatalf("model kinds = %v", kinds)
	}

	// A cross-shard query composes per-shard seeded estimates with the
	// manifest's join factor; a single-shard query routes to that shard
	// alone. Both must match the hand-composed value.
	seed := int64(4242)
	for _, tc := range []struct {
		name string
		qj   server.QueryJSON
	}{{"cross-shard", crossQ}, {"s0-only", s0OnlyQ}, {"s1-only", s1OnlyQ}} {
		resp, body := post(t, ts.URL+"/v1/estimate", server.EstimateRequest{
			Model: "fleet", Query: &tc.qj, Seed: &seed,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", tc.name, resp.StatusCode, body)
		}
		var er server.EstimateResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatal(err)
		}
		if er.Model != "fleet" || er.Est == nil || er.Degraded {
			t.Fatalf("%s response = %s", tc.name, body)
		}
		want := composedExpected(t, man, ests, mustDecode(t, tc.qj), seed, 0)
		if !approxEq(*er.Est, want) {
			t.Fatalf("%s: served %.17g, want composed %.17g", tc.name, *er.Est, want)
		}
	}

	// Routing counters: the cross-shard query touched both shards, the
	// single-shard queries exactly one each.
	exp := metricsBody(t, ts)
	if v := metricValue(t, exp, `neurocard_shard_routed_total{logical="fleet",shard="fleet-s0"}`); v != "2" {
		t.Fatalf("s0 routed = %s, want 2", v)
	}
	if v := metricValue(t, exp, `neurocard_shard_routed_total{logical="fleet",shard="fleet-s1"}`); v != "2" {
		t.Fatalf("s1 routed = %s, want 2", v)
	}
	if v := metricValue(t, exp, "neurocard_logical_queries_total"); v != "3" {
		t.Fatalf("logical queries = %s, want 3", v)
	}
}

func TestLogicalBatchSeededComposition(t *testing.T) {
	_, ts, dir := serveTest(t)
	man, ests := buildFleet(t, dir)
	loadFleet(t, ts)

	seed := int64(99)
	queries := []server.QueryJSON{crossQ, s0OnlyQ, s1OnlyQ, {Tables: []string{"A", "B", "C"}}}
	req := server.EstimateRequest{Model: "fleet", Queries: queries, Seed: &seed}
	resp, body := post(t, ts.URL+"/v1/estimate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var er server.EstimateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Ests) != len(queries) || er.Errors != nil {
		t.Fatalf("batch response = %s", body)
	}
	// Each query's randomness is (seed, original batch index) on every shard
	// it routes to — the per-shard grouping must not perturb it.
	for i, qj := range queries {
		want := composedExpected(t, man, ests, mustDecode(t, qj), seed, int64(i))
		if !approxEq(er.Ests[i], want) {
			t.Fatalf("query %d: served %.17g, want composed %.17g", i, er.Ests[i], want)
		}
	}

	// Re-issuing the identical request is bit-deterministic.
	_, body2 := post(t, ts.URL+"/v1/estimate", req)
	var er2 server.EstimateResponse
	if err := json.Unmarshal(body2, &er2); err != nil {
		t.Fatal(err)
	}
	for i := range er.Ests {
		if er.Ests[i] != er2.Ests[i] {
			t.Fatalf("repeat query %d: %.17g != %.17g", i, er2.Ests[i], er.Ests[i])
		}
	}

	// A planner-rejected query fails positionally without sinking the batch.
	bad := append([]server.QueryJSON{}, queries...)
	bad = append(bad, server.QueryJSON{Tables: []string{"A", "Z"}})
	resp, body = post(t, ts.URL+"/v1/estimate", server.EstimateRequest{Model: "fleet", Queries: bad, Seed: &seed})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial batch: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &er2); err != nil {
		t.Fatal(err)
	}
	if len(er2.Errors) != len(bad) || er2.Errors[len(bad)-1] == "" {
		t.Fatalf("partial batch errors = %v", er2.Errors)
	}
	for i := range queries {
		if er2.Errors[i] != "" || er2.Ests[i] != er.Ests[i] {
			t.Fatalf("partial batch query %d: est %.17g err %q", i, er2.Ests[i], er2.Errors[i])
		}
	}
}

func TestLogicalBinaryWire(t *testing.T) {
	_, ts, dir := serveTest(t)
	buildFleet(t, dir)
	loadFleet(t, ts)

	seed := int64(7)
	qjs := []server.QueryJSON{crossQ, s1OnlyQ}
	queries := []query.Query{mustDecode(t, qjs[0]), mustDecode(t, qjs[1])}

	// JSON reference answer.
	_, body := post(t, ts.URL+"/v1/estimate", server.EstimateRequest{Model: "fleet", Queries: qjs, Seed: &seed})
	var er server.EstimateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Ests) != 2 {
		t.Fatalf("json batch = %s", body)
	}

	// Binary wire: logical model names are plain strings on the wire, so
	// routing needs no protocol change — and the answers are bit-identical.
	frame := server.AppendBinRequest(nil, "fleet", &seed, queries)
	resp, bin := postBin(t, ts.URL+"/v1/estimate", frame)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary: %d %s", resp.StatusCode, bin)
	}
	if ct := resp.Header.Get("Content-Type"); ct != server.ContentTypeBinary {
		t.Fatalf("binary content type = %q", ct)
	}
	br, err := server.DecodeBinResponse(bin)
	if err != nil {
		t.Fatal(err)
	}
	if br.Model != "fleet" || len(br.Ests) != 2 || br.Errs != nil {
		t.Fatalf("binary response = %+v", br)
	}
	for i := range br.Ests {
		if br.Ests[i] != er.Ests[i] {
			t.Fatalf("binary est %d: %.17g != json %.17g", i, br.Ests[i], er.Ests[i])
		}
	}
}

// ---- per-shard hot swap ----

// TestLogicalShardHotSwapDeterminism reloads one shard repeatedly while
// concurrent seeded estimates run against the logical model: every answer
// must equal the baseline bit-for-bit, because the swapped-in checkpoint is
// identical and sub-query randomness is derived from (seed, index) only.
func TestLogicalShardHotSwapDeterminism(t *testing.T) {
	_, ts, dir := serveTest(t)
	buildFleet(t, dir)
	loadFleet(t, ts)

	seed := int64(5150)
	baselineReq := server.EstimateRequest{Model: "fleet", Query: &crossQ, Seed: &seed}
	_, body := post(t, ts.URL+"/v1/estimate", baselineReq)
	var base server.EstimateResponse
	if err := json.Unmarshal(body, &base); err != nil {
		t.Fatal(err)
	}
	if base.Est == nil {
		t.Fatalf("baseline = %s", body)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan string, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, body := post(t, ts.URL+"/v1/estimate", baselineReq)
				if resp.StatusCode != http.StatusOK {
					errCh <- string(body)
					return
				}
				var er server.EstimateResponse
				if err := json.Unmarshal(body, &er); err != nil || er.Est == nil || *er.Est != *base.Est {
					errCh <- string(body)
					return
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		resp, body := post(t, ts.URL+"/v1/models/fleet-s1/load", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("swap %d: %d %s", i, resp.StatusCode, body)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case bad := <-errCh:
		t.Fatalf("estimate diverged during shard hot swap: %s (baseline %.17g)", bad, *base.Est)
	default:
	}

	// The shard generation advanced; the logical entry is untouched.
	_, body = get(t, ts.URL+"/v1/models")
	var list server.ModelsResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	gens := map[string]int{}
	for _, mi := range list.Models {
		gens[mi.Name] = mi.Generation
	}
	if gens["fleet-s1"] != 4 || gens["fleet-s0"] != 1 || gens["fleet"] != 1 {
		t.Fatalf("generations after swaps = %v", gens)
	}
}

// ---- per-shard fault isolation ----

// TestLogicalShardBreakerIsolation trips one shard's breaker and checks the
// blast radius: only estimates routed through that shard degrade to its
// fallback; the other shard's queries are answered by its neural model,
// undegraded.
func TestLogicalShardBreakerIsolation(t *testing.T) {
	_, ts, dir := serveFault(t, aggressiveBreaker())
	buildFleet(t, dir)
	loadFleet(t, ts)

	// Trip fleet-s0's breaker with direct faulted requests to that shard
	// model; fleet-s1 sees none of them.
	armFaults(t, "estimate-nan=1")
	for i := int64(0); i < 4; i++ {
		q := s0OnlyQ
		resp, body := post(t, ts.URL+"/v1/estimate", server.EstimateRequest{Model: "fleet-s0", Query: &q, Seed: &i})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("faulted request %d: %d %s", i, resp.StatusCode, body)
		}
	}
	faultinject.Disarm()

	seed := int64(3)
	// Crossing query: the s0 sub-estimate comes from the fallback, so the
	// composed answer is degraded — but still well-formed and positive.
	resp, body := post(t, ts.URL+"/v1/estimate", server.EstimateRequest{Model: "fleet", Query: &crossQ, Seed: &seed})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("crossing estimate: %d %s", resp.StatusCode, body)
	}
	var er server.EstimateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !er.Degraded || er.Est == nil || *er.Est <= 0 {
		t.Fatalf("crossing response = %s, want degraded positive estimate", body)
	}
	// s1-only query: clean.
	resp, body = post(t, ts.URL+"/v1/estimate", server.EstimateRequest{Model: "fleet", Query: &s1OnlyQ, Seed: &seed})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("s1 estimate: %d %s", resp.StatusCode, body)
	}
	var clean server.EstimateResponse
	if err := json.Unmarshal(body, &clean); err != nil {
		t.Fatal(err)
	}
	if clean.Degraded {
		t.Fatalf("s1-only response degraded by s0's breaker: %s", body)
	}
	// Batch mixing both shapes: whole-response Degraded flag set, but both
	// answers present.
	resp, body = post(t, ts.URL+"/v1/estimate", server.EstimateRequest{
		Model: "fleet", Queries: []server.QueryJSON{crossQ, s1OnlyQ}, Seed: &seed})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed batch: %d %s", resp.StatusCode, body)
	}
	var mixed server.EstimateResponse
	if err := json.Unmarshal(body, &mixed); err != nil {
		t.Fatal(err)
	}
	if !mixed.Degraded || len(mixed.Ests) != 2 || mixed.Ests[0] <= 0 || mixed.Ests[1] <= 0 || mixed.Errors != nil {
		t.Fatalf("mixed batch response = %s", body)
	}

	exp := metricsBody(t, ts)
	if !strings.Contains(exp, `neurocard_breaker_state{model="fleet-s0"} 2`) {
		t.Fatalf("metrics missing open s0 breaker:\n%s", exp)
	}
	if !strings.Contains(exp, `neurocard_breaker_state{model="fleet-s1"} 0`) {
		t.Fatal("metrics missing closed s1 breaker")
	}
}

// Without a fallback, an open shard breaker fails only the estimates that
// need that shard — 503, while the rest of the fleet keeps serving.
func TestLogicalShardBreakerNoFallback(t *testing.T) {
	cfg := aggressiveBreaker()
	cfg.NoFallback = true
	_, ts, dir := serveFault(t, cfg)
	buildFleet(t, dir)
	loadFleet(t, ts)

	armFaults(t, "estimate-nan=1")
	for i := int64(0); i < 4; i++ {
		q := s0OnlyQ
		post(t, ts.URL+"/v1/estimate", server.EstimateRequest{Model: "fleet-s0", Query: &q, Seed: &i})
	}
	faultinject.Disarm()

	seed := int64(3)
	resp, body := post(t, ts.URL+"/v1/estimate", server.EstimateRequest{Model: "fleet", Query: &crossQ, Seed: &seed})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("crossing estimate with open s0: %d %s, want 503", resp.StatusCode, body)
	}
	resp, body = post(t, ts.URL+"/v1/estimate", server.EstimateRequest{Model: "fleet", Query: &s1OnlyQ, Seed: &seed})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("s1 estimate with open s0: %d %s, want 200", resp.StatusCode, body)
	}
	// Batch: the crossing query fails positionally, the s1 query answers.
	resp, body = post(t, ts.URL+"/v1/estimate", server.EstimateRequest{
		Model: "fleet", Queries: []server.QueryJSON{crossQ, s1OnlyQ}, Seed: &seed})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed batch: %d %s", resp.StatusCode, body)
	}
	var er server.EstimateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Errors) != 2 || er.Errors[0] == "" || er.Errors[1] != "" || er.Ests[1] <= 0 {
		t.Fatalf("mixed batch response = %s", body)
	}
	if !strings.Contains(er.Errors[0], "circuit open") {
		t.Fatalf("crossing error = %q", er.Errors[0])
	}
}

// ---- unload ----

func TestLogicalUnloadAndShardMissing(t *testing.T) {
	_, ts, dir := serveTest(t)
	buildFleet(t, dir)
	loadFleet(t, ts)

	seed := int64(1)
	// Unloading one shard out from under the fleet: estimates that need it
	// answer 503 (the fleet is impaired, the query is fine); estimates that
	// route elsewhere keep working.
	resp, body := del(t, ts.URL+"/v1/models/fleet-s1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unload shard: %d %s", resp.StatusCode, body)
	}
	picked := metricValue(t, metricsBody(t, ts), "neurocard_fused_batch_size_count")
	resp, body = post(t, ts.URL+"/v1/estimate", server.EstimateRequest{Model: "fleet", Query: &crossQ, Seed: &seed})
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("crossing estimate without s1: %d %s (Retry-After %q), want 503 + Retry-After: 1",
			resp.StatusCode, body, resp.Header.Get("Retry-After"))
	}
	if !strings.Contains(string(body), "shard model not loaded") {
		t.Fatalf("503 body = %s", body)
	}
	// A single that already failed on one shard sends none of its other
	// sub-queries to a lane.
	if v := metricValue(t, metricsBody(t, ts), "neurocard_fused_batch_size_count"); v != picked {
		t.Fatalf("lane pick-ups %s -> %s across a single that failed on a missing shard", picked, v)
	}
	resp, _ = post(t, ts.URL+"/v1/estimate", server.EstimateRequest{Model: "fleet", Query: &s0OnlyQ, Seed: &seed})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("s0-only estimate without s1: %d, want 200", resp.StatusCode)
	}

	// Reloading the shard heals the fleet.
	resp, _ = post(t, ts.URL+"/v1/models/fleet-s1/load", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload shard: %d", resp.StatusCode)
	}
	resp, _ = post(t, ts.URL+"/v1/estimate", server.EstimateRequest{Model: "fleet", Query: &crossQ, Seed: &seed})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("crossing estimate after reload: %d", resp.StatusCode)
	}

	// Unloading the logical model removes the name but leaves the shard
	// models loaded and directly addressable.
	resp, body = del(t, ts.URL+"/v1/models/fleet")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unload fleet: %d %s", resp.StatusCode, body)
	}
	resp, _ = post(t, ts.URL+"/v1/estimate", server.EstimateRequest{Model: "fleet", Query: &crossQ, Seed: &seed})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("estimate on unloaded fleet: %d, want 404", resp.StatusCode)
	}
	q := s0OnlyQ
	resp, _ = post(t, ts.URL+"/v1/estimate", server.EstimateRequest{Model: "fleet-s0", Query: &q, Seed: &seed})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("direct shard estimate after fleet unload: %d", resp.StatusCode)
	}
	// Unloading something unknown is 404.
	resp, _ = del(t, ts.URL+"/v1/models/fleet")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double unload: %d, want 404", resp.StatusCode)
	}

	exp := metricsBody(t, ts)
	if v := metricValue(t, exp, "neurocard_model_unloads_total"); v != "2" {
		t.Fatalf("unloads total = %s, want 2", v)
	}
}

func TestUnloadDefaultReelection(t *testing.T) {
	_, ts, dir := serveTest(t)
	loadModel(t, ts, dir, "m1")
	loadModel(t, ts, dir, "m2")

	// m1 loaded first and is the default; unloading it re-elects m2.
	resp, body := del(t, ts.URL+"/v1/models/m1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unload m1: %d %s", resp.StatusCode, body)
	}
	_, body = get(t, ts.URL+"/v1/models")
	var list server.ModelsResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Models) != 1 || list.Models[0].Name != "m2" || !list.Models[0].Default {
		t.Fatalf("models after unload = %s", body)
	}
	// Default-addressed estimates keep working against the re-elected model.
	resp, _ = post(t, ts.URL+"/v1/estimate", server.EstimateRequest{Query: &server.QueryJSON{Tables: []string{"A"}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default estimate after re-election: %d", resp.StatusCode)
	}

	// Unloading the last model clears the default; default-addressed
	// estimates fail with 404 rather than hitting a dangling pointer.
	resp, _ = del(t, ts.URL+"/v1/models/m2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unload m2: %d", resp.StatusCode)
	}
	resp, _ = post(t, ts.URL+"/v1/estimate", server.EstimateRequest{Query: &server.QueryJSON{Tables: []string{"A"}}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("default estimate with empty registry: %d, want 404", resp.StatusCode)
	}
}

// TestUnloadVsGetRace hammers Install/Unload against concurrent Get and
// default resolution; the race detector is the assertion.
func TestUnloadVsGetRace(t *testing.T) {
	srv, ts, dir := serveTest(t)
	est := buildEstimator(t, 5, 128)
	path := writeCheckpoint(t, dir, "r", est)
	reg := srv.Registry()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		defer close(stop)
		for i := 0; i < 100; i++ {
			if _, err := reg.Install("r", path, est); err != nil {
				t.Errorf("install: %v", err)
				return
			}
			if err := reg.Unload("r"); err != nil {
				t.Errorf("unload: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if e, err := reg.Get("r"); err == nil && e.Name != "r" {
					t.Errorf("got entry %q", e.Name)
					return
				}
				if e, err := reg.Get(""); err == nil && e == nil {
					t.Error("nil default entry without error")
					return
				}
			}
		}()
	}
	// HTTP estimates race the churn too: any of found/not-found is legal,
	// crashes and torn state are not.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, _ := post(t, ts.URL+"/v1/estimate", server.EstimateRequest{
				Model: "r", Query: &server.QueryJSON{Tables: []string{"A"}}})
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
				t.Errorf("estimate during churn: %d", resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()
}

// del issues an HTTP DELETE.
func del(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
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
