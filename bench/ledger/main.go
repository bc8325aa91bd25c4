// Command ledger is the repository's performance ledger: it trains one pinned
// model, serves it through the real internal/server handler on a loopback
// listener, drives one workload at it from this process, checks the answers,
// and prints every metric by name and unit. See README.md.
//
//	go run ./bench/ledger -workload point_unique -seed 1
//	go run ./bench/ledger -workload probe_open -seed 1 -trace
//	go run ./bench/ledger -repeat 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "", "one of: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "load-generator seed: query literals, hot set, arrival jitter, ingest rows")
	seconds := flag.Float64("seconds", 20, "length of the timed window")
	trace := flag.Bool("trace", false, "the per-layer run: every second slice of the window traced, then the layer passes")
	out := flag.String("out", "", "directory for scratch files and trace-<workload>.json (default: a new temporary directory)")
	repeat := flag.Int("repeat", 0, "run the workload (every workload if none is named) N times in each of two sets and compare the sets")
	flag.Parse()
	if flag.NArg() > 0 { // "-trace 1": -trace is boolean, and what follows it would be dropped silently
		fmt.Fprintf(os.Stderr, "ledger: unexpected argument %q (write -trace or -trace=false)\n", flag.Arg(0))
		os.Exit(2)
	}

	w, ok := findWorkload(*workload)
	if *repeat > 0 {
		which := workloads
		if ok {
			which = []workloadSpec{w}
		}
		os.Exit(repeatSets(which, *repeat, *seconds, os.Stdout))
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "ledger: unknown workload %q (want one of: %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := measure(w, *seed, *seconds, *trace, *out, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// measure runs one workload and prints the report; its last line is the JSON
// object the driver reads.
func measure(w workloadSpec, seed int64, seconds float64, trace bool, out string, stdout io.Writer) error {
	cfg := pinned()
	if out == "" {
		tmp, err := os.MkdirTemp("", "ledger-*")
		if err != nil {
			return err
		}
		out = tmp
		if !trace {
			defer os.Remove(out) // nothing stays in it
		}
	} else if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(out, "run-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	runtime.GOMAXPROCS(runtime.NumCPU())
	ref := refMatmul()
	env := map[string]string{
		"workload":         w.name,
		"seed":             fmt.Sprint(seed),
		"trace":            fmt.Sprint(trace),
		"cpus":             fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":               runtime.Version(),
		"commit":           gitCommit(),
		"window_s":         fmt.Sprint(seconds),
		"warmup_s":         fmt.Sprint(cfg.warmup.Seconds()),
		"ref_matmul_per_s": fmt.Sprintf("%.1f", ref),
		"time":             time.Now().UTC().Format(time.RFC3339),
	}
	o := runOpts{
		seed:      seed,
		window:    time.Duration(seconds * float64(time.Second)),
		trace:     trace,
		outDir:    scratch,
		refMatmul: ref,
		tracePath: filepath.Join(out, "trace-"+w.name+".json"),
		env:       env,
	}
	res, err := run(cfg, w, o)
	if err != nil {
		return err
	}
	return report(stdout, w, env, res, trace, o.tracePath)
}

// gitCommit names the commit measured, when the checkout is a git repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// report prints the environment, every metric that exists on the workload,
// any reason the run is invalid, and the driver's JSON line. The JSON line
// carries the metrics BENCHMARK.json lists — the ones every workload has; a
// metric only some workloads have is in the text above it.
func report(out io.Writer, w workloadSpec, env map[string]string, res *result, trace bool, tracePath string) error {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(out, "# ledger")
	for _, k := range keys {
		fmt.Fprintf(out, " %s=%s", k, env[k])
	}
	fmt.Fprintln(out)

	defs := endToEnd
	if trace {
		defs = perLayer
	}
	js := resultJSON{Correct: len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricJSON{}}
	printed := 0
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if ok != d.appliesTo(w.name) {
			return fmt.Errorf("metric %s: measured=%v but defined on %s=%v", d.name, ok, w.name, d.appliesTo(w.name))
		}
		if !ok {
			continue
		}
		line := fmt.Sprintf("%-34s %16.6g %s", d.name, v, d.unit)
		if n, ok := res.samples[d.name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(out, line)
		printed++
		if d.only == nil {
			js.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		}
	}
	if len(res.metrics) != printed {
		return fmt.Errorf("run measured %d metrics, the catalogue defines %d for %s", len(res.metrics), printed, w.name)
	}
	if !trace {
		fmt.Fprintf(out, "%-34s %16.6g ratio\n", "fail_frac", float64(res.failed)/float64(res.attempted))
		fmt.Fprintf(out, "# est_qps by slice: %.6g\n", res.bySlice)
	} else {
		fmt.Fprintf(out, "# spans written to %s\n", tracePath)
	}
	for _, p := range res.problems {
		fmt.Fprintln(out, "# INVALID:", p)
	}
	line, err := json.Marshal(js)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}
