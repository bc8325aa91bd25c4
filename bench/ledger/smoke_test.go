package main

import (
	"io"
	"math"
	"path/filepath"
	"testing"
	"time"
)

// small is the pinned run shrunk to a 2k-tuple model and sub-second windows:
// the same code paths, no meaningful timings.
func small() config {
	c := pinned()
	c.trainTuples = 2000
	c.warmup = 150 * time.Millisecond
	c.slice = 250 * time.Millisecond
	c.pairs = 2
	c.refreshEvery = 200 * time.Millisecond
	c.goldenN = 16
	c.hotQueries = 16 // so the short warm-up sends every hot query, under the race detector too
	c.refreshTune = 256
	c.minTail = 0
	c.probeRate = 200 // a rate the server also keeps up with under the race detector
	c.replayReqs = 64
	c.layerBudget = 0.004
	return c
}

// Each workload, untraced and traced: every metric the catalogue defines for
// it is measured and finite, nothing fails, and the plan cache is bypassed on
// point_unique and always hit on batch_hot_f32 — which is what makes the two
// a pair on which a cache must show no gain and a gain.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("trains four small models")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				dir := t.TempDir()
				o := runOpts{seed: 7, window: 500 * time.Millisecond, trace: trace, outDir: dir, refMatmul: 1, tracePath: filepath.Join(dir, "trace.json")}
				res, err := run(small(), w, o)
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				// report checks the measured names against the catalogue.
				if err := report(io.Discard, w, map[string]string{}, res, trace, o.tracePath); err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				for name, v := range res.metrics {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("trace=%v: %s = %v", trace, name, v)
					}
				}
				if res.failed != 0 || res.attempted == 0 || len(res.problems) != 0 {
					t.Errorf("trace=%v: %d of %d operations failed; problems: %v", trace, res.failed, res.attempted, res.problems)
				}
				if !trace {
					if res.metrics["ok_frac"] != 1 {
						t.Errorf("ok_frac = %v, want 1", res.metrics["ok_frac"])
					}
					continue
				}
				switch hit := res.metrics["core.plan_hit_ratio"]; {
				case w.name == "point_unique" && hit > 0.01:
					t.Errorf("point_unique hit the plan cache on %.3f of lookups; it must bypass it", hit)
				case w.name == "batch_hot_f32" && hit < 0.99:
					t.Errorf("batch_hot_f32 hit the plan cache on %.3f of lookups; it must stay inside it", hit)
				}
			}
		})
	}
}
