package server_test

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"neurocard/internal/core"
	"neurocard/internal/datagen"
	"neurocard/internal/query"
	"neurocard/internal/server"
	"neurocard/internal/shard"
	"neurocard/internal/workload"
)

// matrixEstimator trains a small estimator over the sub-schema of a JOB-light
// dataset induced by tables.
func matrixEstimator(t *testing.T, d *datagen.Dataset, tables []string, seed int64) *core.Estimator {
	t.Helper()
	sch := d.Schema
	if tables != nil {
		var err error
		if sch, err = d.Schema.SubSchema(tables); err != nil {
			t.Fatal(err)
		}
	}
	cfg := core.DefaultConfig()
	cfg.Model.Hidden = 24
	cfg.Model.EmbedDim = 6
	cfg.Model.Blocks = 1
	cfg.PSamples = 64
	cfg.BatchSize = 64
	cfg.Seed = seed
	cfg.ContentCols = make(map[string][]string)
	for _, tb := range sch.Tables() {
		cfg.ContentCols[tb] = d.ContentCols[tb]
	}
	est, err := core.Build(sch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.Train(256); err != nil {
		t.Fatal(err)
	}
	return est
}

// matrixFleet writes a logical model's manifest plus one checkpoint per shard
// and returns its planner with the in-process estimator of every shard. A
// shard named in reuse serves that estimator instead of a freshly trained one.
func matrixFleet(t *testing.T, dir string, d *datagen.Dataset, name string, parts [][]string,
	reuse map[string]*core.Estimator) (*shard.Planner, map[string]*core.Estimator) {
	t.Helper()
	man, err := shard.Build(d.Schema, name, parts)
	if err != nil {
		t.Fatal(err)
	}
	ests := make(map[string]*core.Estimator)
	for i, sp := range man.Shards {
		est := reuse[sp.Name]
		if est == nil {
			est = matrixEstimator(t, d, sp.Tables, int64(31+i))
		}
		ests[sp.Name] = est
		writeCheckpoint(t, dir, sp.Name, est)
	}
	if err := man.Write(shard.ManifestPath(dir, name)); err != nil {
		t.Fatal(err)
	}
	pl, err := shard.NewPlanner(man)
	if err != nil {
		t.Fatal(err)
	}
	return pl, ests
}

// TestWireMatrix serves one fixed-seed golden workload through every cell of
// {physical f64, physical f32, one-shard logical, two-shard logical} ×
// {single, batch} × {JSON, NCB} and holds each served value bit-equal to its
// in-process reference: EstimateSeededIndexed(q, seed, idx) for a physical
// model, Factor × Π EstimateSeededIndexed(sub, seed, idx) in plan order for a
// logical one — idx 0 for a single, the batch position for a batch. A
// one-shard logical model over the physical model's checkpoint must serve
// exactly what the physical model serves: the identity route is that one
// shard.
func TestWireMatrix(t *testing.T) {
	d, err := datagen.JOBLight(datagen.Config{Seed: 5, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.Golden(d, 20, 20260728)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]query.Query, len(wl.Queries))
	qjs := make([]server.QueryJSON, len(wl.Queries))
	for i, lq := range wl.Queries {
		queries[i] = lq.Query
		if qjs[i], err = server.EncodeQuery(lq.Query); err != nil {
			t.Fatal(err)
		}
	}

	srv, ts, dir := serveTest(t)
	phys := matrixEstimator(t, d, nil, 7)
	path := writeCheckpoint(t, dir, "m", phys)
	f32, err := loadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f32.SetPrecision(core.PrecisionFloat32); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Registry().LoadPrecision("m", path, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Registry().LoadPrecision("m32", path, core.PrecisionFloat32); err != nil {
		t.Fatal(err)
	}
	all := [][]string{d.Schema.Tables()}
	soloPl, soloEsts := matrixFleet(t, dir, d, "solo", all, map[string]*core.Estimator{"solo-s0": phys})
	fleetPl, fleetEsts := matrixFleet(t, dir, d, "fleet", [][]string{
		{"title", "cast_info", "movie_companies", "movie_info", "movie_info_idx"},
		{"movie_keyword"},
	}, nil)
	for _, name := range []string{"solo", "fleet"} {
		if resp, body := post(t, ts.URL+"/v1/models/"+name+"/load", server.LoadRequest{Manifest: true}); resp.StatusCode != http.StatusOK {
			t.Fatalf("load %s: %d %s", name, resp.StatusCode, body)
		}
	}

	const seed = int64(20261020)
	physical := func(est *core.Estimator) func(query.Query, int64) float64 {
		return func(q query.Query, idx int64) float64 {
			v, err := est.EstimateSeededIndexed(q, seed, idx)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	logical := func(pl *shard.Planner, ests map[string]*core.Estimator) func(query.Query, int64) float64 {
		return func(q query.Query, idx int64) float64 {
			plan, err := pl.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			est := plan.Factor
			for _, sub := range plan.Subs {
				est *= physical(ests[sub.Shard])(sub.Query, idx)
			}
			return est
		}
	}
	models := []struct {
		name string
		ref  func(query.Query, int64) float64
	}{
		{"m", physical(phys)},
		{"m32", physical(f32)},
		{"solo", logical(soloPl, soloEsts)},
		{"fleet", logical(fleetPl, fleetEsts)},
	}
	crossing := 0
	for _, q := range queries {
		if plan, err := fleetPl.Plan(q); err == nil && len(plan.Subs) > 1 {
			crossing++
		}
	}
	if crossing == 0 {
		t.Fatal("no golden query crosses the fleet's shards")
	}

	type cell struct {
		model      string
		batch, ncb bool
	}
	served := make(map[cell][]float64)
	for _, m := range models {
		for _, batch := range []bool{false, true} {
			for _, ncb := range []bool{false, true} {
				c := cell{m.name, batch, ncb}
				got := serveCell(t, ts, m.name, seed, queries, qjs, batch, ncb)
				for i, q := range queries {
					idx := int64(0)
					if batch {
						idx = int64(i)
					}
					if want := m.ref(q, idx); math.Float64bits(got[i]) != math.Float64bits(want) {
						t.Errorf("%+v query %d: served %.17g, in-process %.17g", c, i, got[i], want)
					}
				}
				served[c] = got
			}
		}
	}
	for c, got := range served {
		if c.ncb {
			if js := served[cell{c.model, c.batch, false}]; !bitsEqual(got, js) {
				t.Errorf("%+v: NCB %v != JSON %v", c, got, js)
			}
		}
		if c.model == "solo" {
			if ph := served[cell{"m", c.batch, c.ncb}]; !bitsEqual(got, ph) {
				t.Errorf("%+v: one-shard logical %v != physical %v", c, got, ph)
			}
		}
	}
}

// serveCell answers queries through one wire cell: one seeded request per
// query (single) or one seeded request for all (batch), as JSON or NCB.
func serveCell(t *testing.T, ts *httptest.Server, model string, seed int64,
	queries []query.Query, qjs []server.QueryJSON, batch, ncb bool) []float64 {
	t.Helper()
	var out []float64
	send := func(qs []query.Query, js []server.QueryJSON) {
		var ests []float64
		if ncb {
			resp, body := postBin(t, ts.URL+"/v1/estimate", server.AppendBinRequest(nil, model, &seed, qs))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s NCB: %d %s", model, resp.StatusCode, body)
			}
			br, err := server.DecodeBinResponse(body)
			if err != nil || br.Model != model || br.Errs != nil || br.Degraded {
				t.Fatalf("%s NCB response %+v (%v)", model, br, err)
			}
			ests = br.Ests
		} else {
			req := server.EstimateRequest{Model: model, Seed: &seed, Queries: js}
			if !batch {
				req = server.EstimateRequest{Model: model, Seed: &seed, Query: &js[0]}
			}
			resp, body := post(t, ts.URL+"/v1/estimate", req)
			var er server.EstimateResponse
			if err := json.Unmarshal(body, &er); err != nil || resp.StatusCode != http.StatusOK ||
				er.Model != model || er.Errors != nil || er.Degraded || er.Count != len(qs) {
				t.Fatalf("%s JSON: %d %s", model, resp.StatusCode, body)
			}
			ests = er.Ests
			if !batch {
				ests = []float64{*er.Est}
			}
		}
		if len(ests) != len(qs) {
			t.Fatalf("%s: %d estimates for %d queries", model, len(ests), len(qs))
		}
		out = append(out, ests...)
	}
	if batch {
		send(queries, qjs)
		return out
	}
	for i := range queries {
		send(queries[i:i+1], qjs[i:i+1])
	}
	return out
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func loadCheckpointFile(path string) (*core.Estimator, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.LoadCheckpoint(f)
}
