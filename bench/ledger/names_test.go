package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricJSONDef `json:"end_to_end"`
	PerLayer []metricJSONDef `json:"per_layer"`
}

type metricJSONDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the catalogue in config.go are two statements of one
// contract: every workload and metric the file names is one the code emits,
// and the code emits no metric on every workload that the file leaves out.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench/ledger" {
		t.Errorf("paths = %v, want [bench/ledger]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q (%q), code has %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name, or a why of %d characters", w.name, len(w.why))
		}
	}

	seen := map[string]bool{}
	check := func(kind string, file []metricJSONDef, code []metricDef) {
		var everywhere []metricDef
		for _, d := range code {
			if seen[d.name] {
				t.Errorf("metric %s is defined twice", d.name)
			}
			seen[d.name] = true
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
				t.Errorf("metric %+v: bad name, unit or direction", d)
			}
			for _, w := range d.only {
				if _, ok := findWorkload(w); !ok {
					t.Errorf("metric %s is limited to unknown workload %q", d.name, w)
				}
			}
			if d.only == nil {
				everywhere = append(everywhere, d)
			}
		}
		if len(file) != len(everywhere) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the code that exist on every workload", kind, len(file), len(everywhere))
		}
		for i, d := range everywhere {
			f := file[i]
			if f.Name != d.name || f.Unit != d.unit || f.Better != d.better {
				t.Errorf("%s %d: file has %+v, code has %+v", kind, i, f, d)
			}
			if (f.Bound != nil) != (d.bound > 0) || (f.Bound != nil && (*f.Bound != d.bound || d.bound > 0.25)) {
				t.Errorf("%s: file bound %v, code bound %v", d.name, f.Bound, d.bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, d := range endToEnd {
		if d.bound <= 0 {
			t.Errorf("end-to-end metric %s must carry a bound", d.name)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s is missing")
	}
}
