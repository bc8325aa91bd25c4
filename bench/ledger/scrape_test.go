package main

import "testing"

const page = `# HELP neurocard_fused_batch_size Queries per fused flush.
# TYPE neurocard_fused_batch_size histogram
neurocard_fused_batch_size_bucket{le="1"} 40
neurocard_fused_batch_size_bucket{le="+Inf"} 50
neurocard_fused_batch_size_sum 75
neurocard_fused_batch_size_count 50
# TYPE neurocard_fallback_total counter
neurocard_fallback_total 3
neurocard_plan_cache_hits_total{model="joblight"} 900
neurocard_plan_cache_hits_total{model="other"} 100
neurocard_plan_cache_hits_total_bogus 7
neurocard_coalesce_window_current_seconds{model="joblight"} 0.00015

not a sample
`

func TestParseScrape(t *testing.T) {
	s := parseScrape(page)
	for k, want := range map[string]float64{
		"neurocard_fallback_total":                                    3,
		"neurocard_fused_batch_size_sum":                              75,
		`neurocard_fused_batch_size_bucket{le="+Inf"}`:                50,
		`neurocard_plan_cache_hits_total{model="joblight"}`:           900,
		`neurocard_coalesce_window_current_seconds{model="joblight"}`: 0.00015,
	} {
		if got, ok := s[k]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", k, got, ok, want)
		}
	}
	if len(s) != 9 {
		t.Errorf("%d samples parsed, want 9: %v", len(s), s)
	}
	if got := s.family("neurocard_plan_cache_hits_total"); got != 1000 {
		t.Errorf("family sum = %v, want 1000 (both models, not the _bogus sample)", got)
	}
	later := parseScrape("neurocard_fused_batch_size_sum 175\nneurocard_fused_batch_size_count 100\n")
	if m, ok := histMean(s, later, "neurocard_fused_batch_size"); !ok || m != 2 {
		t.Errorf("mean between scrapes = %v (ok %v), want 2", m, ok)
	}
	if _, ok := histMean(s, s, "neurocard_fused_batch_size"); ok {
		t.Error("a histogram nothing was observed in reported a mean")
	}
}
