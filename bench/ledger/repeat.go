package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// repeatSets is the steadiness check the driver applies, run by hand: each
// workload n times in each of two sets, each run a fresh process with its own
// seed. It prints every run, then for each end-to-end metric both sets' median, quartiles and
// spread (the distance between the quartiles as a share of the median), and
// returns non-zero if a spread exceeds the metric's bound (setup_s excepted)
// or the second set's median is worse than the first's by more than it.
func repeatSets(which []workloadSpec, n int, seconds float64, out io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 1
	}
	bad := 0
	for _, w := range which {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < n; i++ {
				seed := 1000*(s+1) + i + 1
				cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds))
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				if err != nil {
					fmt.Fprintf(os.Stderr, "ledger: %s seed %d: %v\n", w.name, seed, err)
					return 1
				}
				lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
				var r resultJSON
				if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
					fmt.Fprintf(os.Stderr, "ledger: %s seed %d: last line is not a result: %v\n", w.name, seed, err)
					return 1
				}
				if !r.Correct || r.Failed > 0 {
					fmt.Fprintf(out, "%s seed %d: correct=%v failed=%d\n", w.name, seed, r.Correct, r.Failed)
					bad++
				}
				// The report's lines, not the JSON line: refresh_s exists on
				// one workload only and so is not in the JSON line.
				fmt.Fprintf(out, "%s set %d seed %d:", w.name, s+1, seed)
				for _, line := range lines[:len(lines)-1] {
					f := strings.Fields(string(line))
					if len(f) < 3 {
						continue
					}
					if v, err := strconv.ParseFloat(f[1], 64); err == nil {
						sets[s][f[0]] = append(sets[s][f[0]], v)
						fmt.Fprintf(out, " %s=%s", f[0], f[1])
					}
				}
				fmt.Fprintln(out)
			}
		}
		fmt.Fprintf(out, "%s (two sets of %d runs, %gs windows)\n", w.name, n, seconds)
		fmt.Fprintf(out, "  %-16s %12s %12s %12s %8s | %12s %8s | %8s %6s\n", "metric", "median", "q1", "q3", "spread", "median 2", "spread 2", "worse by", "bound")
		for _, d := range endToEnd {
			if !d.appliesTo(w.name) {
				continue
			}
			q1, med, q3 := quartiles(sets[0][d.name])
			p1, med2, p3 := quartiles(sets[1][d.name])
			spread, spread2 := (q3-q1)/med, (p3-p1)/med2
			worse := (med2 - med) / med
			if d.better == "higher" {
				worse = -worse
			}
			var flags []string
			if d.name != "setup_s" && max(spread, spread2) > d.bound {
				flags = append(flags, "SPREAD")
			}
			if worse > d.bound {
				flags = append(flags, "DRIFT")
			}
			bad += len(flags)
			fmt.Fprintf(out, "  %-16s %12.6g %12.6g %12.6g %7.2f%% | %12.6g %7.2f%% | %+7.2f%% %5.1f%% %s\n",
				d.name, med, q1, q3, 100*spread, med2, 100*spread2, 100*worse, 100*d.bound, strings.Join(flags, " "))
		}
	}
	if bad > 0 {
		fmt.Fprintf(out, "%d checks failed\n", bad)
		return 1
	}
	return 0
}
