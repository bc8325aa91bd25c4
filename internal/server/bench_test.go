package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"neurocard/internal/core"
	"neurocard/internal/datagen"
	"neurocard/internal/workload"
)

// BenchmarkServeSingle drives single-query JSON requests through Handler()
// from GOMAXPROCS closed-loop callers: decode, lane hop, plan compile,
// sampling, encode — everything but the socket. The 256 filtered queries are
// all distinct and the plan cache holds one entry, so every request compiles
// its plan. Run with -cpu 1,2 to read how throughput scales with lanes. The
// model is untrained: the weights' values do not change what inference costs.
func BenchmarkServeSingle(b *testing.B) {
	d, err := datagen.JOBLight(datagen.Config{Seed: 1, Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Model.Hidden = 64
	cfg.Model.EmbedDim = 8
	cfg.Model.Blocks = 1
	cfg.ContentCols = d.ContentCols
	cfg.PSamples = 128
	cfg.PlanCache = 1
	est, err := core.Build(d.Schema, cfg)
	if err != nil {
		b.Fatal(err)
	}
	wl, err := workload.JOBLightRanges(d, 256, 7)
	if err != nil {
		b.Fatal(err)
	}
	bodies := make([][]byte, len(wl.Queries))
	for i, lq := range wl.Queries {
		qj, err := EncodeQuery(lq.Query)
		if err != nil {
			b.Fatal(err)
		}
		if bodies[i], err = json.Marshal(EstimateRequest{Query: &qj}); err != nil {
			b.Fatal(err)
		}
	}
	srv := New(Config{ModelsDir: b.TempDir()})
	defer srv.Close()
	if _, err := srv.reg.Install("m", "mem", est); err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			body := bodies[int(next.Add(1))%len(bodies)]
			req := httptest.NewRequest("POST", "/v1/estimate", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Errorf("estimate: %d %s", rec.Code, rec.Body)
				return
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
}
