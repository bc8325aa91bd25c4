package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"neurocard/internal/server"
)

// clock lets the scheduler run on virtual time in tests. Times are offsets
// from the run's epoch.
type clock interface {
	Now() time.Duration
	SleepUntil(t time.Duration)
}

type realClock struct{ epoch time.Time }

func (c realClock) Now() time.Duration { return time.Since(c.epoch) }
func (c realClock) SleepUntil(t time.Duration) {
	if d := t - c.Now(); d > 0 {
		time.Sleep(d)
	}
}

// op is one operation as the load generator saw it. An open-loop operation
// is timed from due, the instant its schedule wanted it sent, so a stall
// charges every request queued behind it; on a closed loop due == start.
type op struct {
	seq    int64 // request id, shared by the operation's spans
	key    int   // which distinct request of the cycle
	due    time.Duration
	start  time.Duration
	end    time.Duration
	n      int // estimates answered, or rows acknowledged
	failed bool
}

func (o op) latencyMs() float64 { return float64(o.end-o.due) / float64(time.Millisecond) }
func (o op) lateMs() float64    { return float64(o.start-o.due) / float64(time.Millisecond) }

// drive runs workers goroutines over one stream of operations. Each takes the
// stream's next index, asks when it is due (ok=false ends the worker), waits
// for that instant, and sends. A closed loop passes a due that returns "now";
// an open loop passes its schedule, and because a worker picks its next
// operation only after finishing the last, at most `workers` are in flight
// and the rest of the schedule waits — which latency-from-due then shows.
func drive(clk clock, workers int, due func(i int) (time.Duration, bool), send func(i int, o *op)) []op {
	var next atomic.Int64
	per := make([][]op, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				at, ok := due(i)
				if !ok {
					return
				}
				clk.SleepUntil(at)
				o := op{due: at, start: clk.Now()}
				send(i, &o)
				o.end = clk.Now()
				per[w] = append(per[w], o)
			}
		}(w)
	}
	wg.Wait()
	var all []op
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].start < all[b].start })
	return all
}

// closedUntil is the closed-loop due function: always now, until deadline.
func closedUntil(clk clock, deadline time.Duration) func(int) (time.Duration, bool) {
	return func(int) (time.Duration, bool) {
		now := clk.Now()
		return now, now < deadline
	}
}

// schedule lays out open-loop arrivals over [from, from+window): intervals of
// 1/rate, each stretched or shrunk by a uniform ±jitter share.
func schedule(rng *rand.Rand, from, window time.Duration, rate, jitter float64) []time.Duration {
	var due []time.Duration
	step := float64(time.Second) / rate
	for t := float64(from); t < float64(from+window); t += step * (1 + jitter*(2*rng.Float64()-1)) {
		due = append(due, time.Duration(t))
	}
	return due
}

func scheduled(due []time.Duration) func(int) (time.Duration, bool) {
	return func(i int) (time.Duration, bool) {
		if i >= len(due) {
			return 0, false
		}
		return due[i], true
	}
}

// backlog returns, for each operation in start order, how many scheduled
// operations were due but not yet started at the moment it started.
func backlog(ops []op, due []time.Duration) []int {
	out := make([]int, len(ops))
	for i, o := range ops {
		arrived := sort.Search(len(due), func(j int) bool { return due[j] > o.start })
		out[i] = arrived - (i + 1)
	}
	return out
}

// backlogGrowing is the open-loop validity rule: the generator kept up if the
// last hundredth of the schedule started, on average, less than 50 intervals
// late. A server 1 % short of the offered rate is a hundred intervals behind
// after ten thousand arrivals, so this catches a deficit that small, while a
// stall the server has recovered from by the end only shows in the latencies.
func backlogGrowing(ops []op, rate float64) bool {
	if len(ops) < 5 {
		return false
	}
	tail := ops[len(ops)-max(5, len(ops)/100):]
	late := 0.0
	for _, o := range tail {
		late += o.lateMs()
	}
	return late/float64(len(tail)) > 50*1000/rate
}

// client sends prepared requests over at most conns loopback connections.
type client struct {
	hc     *http.Client
	base   string
	seq    atomic.Int64
	traced atomic.Bool // set: send X-Bench-Req and record client.request spans
	tr     *tracer
	clk    clock
}

func newClient(base string, conns int, clk clock, tr *tracer) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		}},
		base: base,
		tr:   tr,
		clk:  clk,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// send issues one request and fills in what came back. o.start is already
// set; the caller stamps o.end.
func (c *client) send(r *request, o *op) (body []byte) {
	o.seq, o.key = c.seq.Add(1), r.key
	path, ctype := estimatePath, "application/json"
	switch r.kind {
	case kindEstBin:
		ctype = server.ContentTypeBinary
	case kindIngest:
		path, ctype = ingestPath, server.ContentTypeBinary
	}
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(r.body))
	if err != nil {
		o.failed = true
		return nil
	}
	req.Header.Set("Content-Type", ctype)
	traced := c.traced.Load()
	if traced {
		req.Header.Set(reqHeader, strconv.FormatInt(o.seq, 10))
	}
	status := 0
	resp, err := c.hc.Do(req)
	if err == nil {
		status = resp.StatusCode
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if traced {
		c.tr.add(span{Name: "client.request", ID: clientSpanID(o.seq), Req: o.seq, Start: o.start, End: c.clk.Now()})
	}
	o.n, o.failed = classify(r, status, err, body)
	return body
}

// classify is the failure accounting. An operation failed if the transport
// failed, the status is not 200, the answer is marked degraded (a fallback
// histogram's answer is not the model's), any estimate is missing, errored or
// not finite, or an ingest batch was not acknowledged durable in full.
func classify(r *request, status int, err error, body []byte) (n int, failed bool) {
	if err != nil || status != http.StatusOK {
		return 0, true
	}
	if r.kind == kindIngest {
		var ir server.IngestResponse
		if json.Unmarshal(body, &ir) != nil || !ir.Durable || ir.Rows != r.n {
			return 0, true
		}
		return r.n, false
	}
	ests, ok := decodeEstimates(r.kind, body)
	if !ok || len(ests) != r.n {
		return 0, true
	}
	return r.n, false
}

// decodeEstimates parses a 200 estimate response in either wire format.
func decodeEstimates(kind reqKind, body []byte) ([]float64, bool) {
	var ests []float64
	if kind == kindEstBin {
		br, err := server.DecodeBinResponse(body)
		if err != nil || br.Degraded || br.Errs != nil {
			return nil, false
		}
		ests = br.Ests
	} else {
		var er server.EstimateResponse
		if json.Unmarshal(body, &er) != nil || er.Degraded || er.Errors != nil {
			return nil, false
		}
		ests = er.Ests
		if er.Est != nil {
			ests = []float64{*er.Est}
		}
	}
	for _, e := range ests {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			return nil, false
		}
	}
	return ests, true
}

// tally sums a phase's operations.
type tally struct {
	sent, failed, n int
}

func count(ops []op) tally {
	t := tally{sent: len(ops)}
	for _, o := range ops {
		if o.failed {
			t.failed++
		} else {
			t.n += o.n
		}
	}
	return t
}

// okLatencies returns the latencies (ms, from due) of the operations that
// succeeded, sorted. A failed request has no latency: it counts in ok_frac.
func okLatencies(ops []op) []float64 {
	out := make([]float64, 0, len(ops))
	for _, o := range ops {
		if !o.failed {
			out = append(out, o.latencyMs())
		}
	}
	sort.Float64s(out)
	return out
}
