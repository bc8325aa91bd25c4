package main

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"neurocard/internal/server"
)

// fakeClock is virtual time: sleeping jumps to the instant slept for, and a
// fake send advances it by the service time.
type fakeClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = max(c.now, t)
}

func (c *fakeClock) advance(d time.Duration) { c.SleepUntil(c.Now() + d) }

const msec = time.Millisecond

func everyMs(n int) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * msec
	}
	return due
}

// One connection, arrivals every 1 ms, service 3 ms: request i cannot start
// before 3i ms. An open loop must charge it the wait — latency from the due
// instant is 2i+3 ms, not the 3 ms a closed loop would report — and say how
// late it ran.
func TestOpenLoopTimesFromDueInstant(t *testing.T) {
	clk := &fakeClock{}
	due := everyMs(100)
	ops := drive(clk, 1, scheduled(due), func(i int, o *op) {
		clk.advance(3 * msec)
		o.n = 1
	})
	if len(ops) != len(due) {
		t.Fatalf("%d operations ran, want %d", len(ops), len(due))
	}
	for i, o := range ops {
		if o.due != due[i] || o.start != time.Duration(3*i)*msec {
			t.Fatalf("op %d: due %v start %v, want due %v start %v", i, o.due, o.start, due[i], time.Duration(3*i)*msec)
		}
		if got, want := o.latencyMs(), float64(2*i+3); got != want {
			t.Fatalf("op %d: latency %v ms, want %v (timed from the due instant)", i, got, want)
		}
		if got, want := o.lateMs(), float64(2*i); got != want {
			t.Fatalf("op %d: ran %v ms late, want %v", i, got, want)
		}
	}
	bl := backlog(ops, due)
	if bl[0] != 0 || bl[10] != 20 || bl[99] != 0 {
		t.Errorf("backlog at ops 0, 10, 99 = %d, %d, %d, want 0, 20, 0", bl[0], bl[10], bl[99])
	}
	if !backlogGrowing(ops, 1000) {
		t.Error("a server three times too slow was not reported as a growing backlog")
	}
}

func TestOpenLoopThatKeepsUpIsValid(t *testing.T) {
	clk := &fakeClock{}
	ops := drive(clk, 1, scheduled(everyMs(100)), func(i int, o *op) { clk.advance(msec / 2) })
	for i, o := range ops {
		if o.lateMs() != 0 || o.latencyMs() != 0.5 {
			t.Fatalf("op %d: late %v ms, latency %v ms, want 0 and 0.5", i, o.lateMs(), o.latencyMs())
		}
	}
	if backlogGrowing(ops, 1000) {
		t.Error("a server twice as fast as the arrivals was reported as a growing backlog")
	}
}

func TestAStallTheServerRecoveredFromIsNotAGrowingBacklog(t *testing.T) {
	clk := &fakeClock{}
	ops := drive(clk, 1, scheduled(everyMs(4000)), func(i int, o *op) {
		if i == 3250 {
			clk.advance(400 * msec)
		}
		clk.advance(msec / 4)
	})
	if late := ops[3300].lateMs(); late < 300 {
		t.Fatalf("op 3300 ran %v ms late, want it queued behind the stall", late)
	}
	if late := ops[3999].lateMs(); late != 0 {
		t.Fatalf("op 3999 ran %v ms late, want the backlog drained", late)
	}
	if backlogGrowing(ops, 1000) {
		t.Error("a drained stall in the last fifth of the window was reported as a growing backlog")
	}
}

func TestClosedLoopSendsBackToBackUntilDeadline(t *testing.T) {
	clk := &fakeClock{}
	ops := drive(clk, 1, closedUntil(clk, 10*msec), func(i int, o *op) { clk.advance(msec) })
	if len(ops) != 10 {
		t.Fatalf("%d operations in a 10 ms window of 1 ms requests, want 10", len(ops))
	}
	for i, o := range ops {
		if o.due != o.start || o.latencyMs() != 1 {
			t.Fatalf("op %d: due %v start %v latency %v ms; a closed loop is due when it starts", i, o.due, o.start, o.latencyMs())
		}
	}
}

func TestScheduleIsSeededAndJittered(t *testing.T) {
	a := schedule(rand.New(rand.NewSource(7)), time.Second, 10*time.Second, 1000, 0.1)
	b := schedule(rand.New(rand.NewSource(7)), time.Second, 10*time.Second, 1000, 0.1)
	if len(a) != len(b) || math.Abs(float64(len(a))-10000) > 100 {
		t.Fatalf("schedules of %d and %d arrivals, want the same and about 10000", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs between two schedules of one seed", i)
		}
		if i > 0 {
			if gap := a[i] - a[i-1]; gap < 899*time.Microsecond || gap > 1101*time.Microsecond {
				t.Fatalf("interval %d is %v, want 1 ms +- 10 %%", i, gap)
			}
		}
	}
	if a[0] != time.Second || a[len(a)-1] >= 11*time.Second {
		t.Errorf("schedule spans %v..%v, want it inside [1s, 11s)", a[0], a[len(a)-1])
	}
}

func TestFailureAccounting(t *testing.T) {
	one := 12.5
	okJSON, _ := json.Marshal(server.EstimateResponse{Model: modelName, Est: &one, Count: 1})
	degraded, _ := json.Marshal(server.EstimateResponse{Model: modelName, Est: &one, Degraded: true, Count: 1})
	partial, _ := json.Marshal(server.EstimateResponse{Model: modelName, Ests: []float64{3, 0}, Errors: []string{"", "bad"}, Count: 2})
	acked, _ := json.Marshal(server.IngestResponse{Model: modelName, Rows: 6, Durable: true})
	notDurable, _ := json.Marshal(server.IngestResponse{Model: modelName, Rows: 6})
	single := &request{kind: kindEstJSON, n: 1}
	batch := &request{kind: kindEstBin, n: 2}
	rows := &request{kind: kindIngest, n: 6}
	for _, c := range []struct {
		name   string
		r      *request
		status int
		err    error
		body   []byte
		n      int
		failed bool
	}{
		{"json ok", single, 200, nil, okJSON, 1, false},
		{"bin ok", batch, 200, nil, server.AppendBinResponse(nil, modelName, []float64{3, 4}, nil, false), 2, false},
		{"ingest acked", rows, 200, nil, acked, 6, false},
		{"transport error", single, 0, errors.New("connection reset"), nil, 0, true},
		{"429 is a failure", single, 429, nil, []byte(`{"error":"saturated"}`), 0, true},
		{"503 is a failure", batch, 503, nil, nil, 0, true},
		{"degraded json", single, 200, nil, degraded, 0, true},
		{"degraded bin", batch, 200, nil, server.AppendBinResponse(nil, modelName, []float64{3, 4}, nil, true), 0, true},
		{"one query of a batch errored", &request{kind: kindEstJSON, n: 2}, 200, nil, partial, 0, true},
		{"bin per-query error", batch, 200, nil, server.AppendBinResponse(nil, modelName, []float64{3, 0}, []string{"", "bad"}, false), 0, true},
		{"non-finite estimate", batch, 200, nil, server.AppendBinResponse(nil, modelName, []float64{3, math.NaN()}, nil, false), 0, true},
		{"too few estimates", batch, 200, nil, server.AppendBinResponse(nil, modelName, []float64{3}, nil, false), 0, true},
		{"garbage body", single, 200, nil, []byte("<html>"), 0, true},
		{"ingest not durable", rows, 200, nil, notDurable, 0, true},
		{"ingest acked fewer rows", &request{kind: kindIngest, n: 7}, 200, nil, acked, 0, true},
	} {
		n, failed := classify(c.r, c.status, c.err, c.body)
		if n != c.n || failed != c.failed {
			t.Errorf("%s: classify = (%d, failed=%v), want (%d, failed=%v)", c.name, n, failed, c.n, c.failed)
		}
	}
	tl := count([]op{{n: 16}, {failed: true}, {n: 16}})
	if tl.sent != 3 || tl.failed != 1 || tl.n != 32 {
		t.Errorf("tally = %+v, want 3 sent, 1 failed, 32 estimates", tl)
	}
	if lat := okLatencies([]op{{end: 2 * msec}, {end: 9 * msec, failed: true}, {end: msec}}); len(lat) != 2 || lat[0] != 1 || lat[1] != 2 {
		t.Errorf("okLatencies = %v, want the two successful latencies sorted", lat)
	}
}
