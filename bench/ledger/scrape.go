package main

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// scrape is one reading of the server's /metrics page: sample name, with its
// label set if it has one, to value.
type scrape map[string]float64

func parseScrape(text string) scrape {
	out := scrape{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out
}

func scrapeMetrics(hc *http.Client, base string) (scrape, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return parseScrape(string(body)), nil
}

// family sums every sample of a metric family, whatever its labels.
func (s scrape) family(name string) float64 {
	t := 0.0
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// histMean is the mean observation of a histogram between two scrapes, and
// whether anything was observed.
func histMean(before, after scrape, name string) (float64, bool) {
	n := after[name+"_count"] - before[name+"_count"]
	if n <= 0 {
		return 0, false
	}
	return (after[name+"_sum"] - before[name+"_sum"]) / n, true
}
