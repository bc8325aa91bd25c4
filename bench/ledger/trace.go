package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// reqHeader carries the load generator's request id to the handler
// middleware, so the two spans of one request share it.
const reqHeader = "X-Bench-Req"

// span is one timed interval at a layer boundary. Parent is the span that
// caused it (0 = none); spans of one request share Req. All spans are
// recorded from this package's own files, around the calls into each layer.
type span struct {
	Name   string        `json:"name"`
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Req    int64         `json:"req,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

func clientSpanID(seq int64) int64  { return seq << 1 }
func handlerSpanID(seq int64) int64 { return seq<<1 | 1 }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	clk   clock
	mu    sync.Mutex
	spans []span
	last  int64 // ids of spans that belong to no request count down from here
}

// newID returns an id for a span outside any request; request spans use the
// positive ids clientSpanID and handlerSpanID derive.
func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.last--
	return t.last
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the spans recorded so far and forgets them.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

// middleware records a server.handler span for every request that carries a
// request id. Untraced windows send no id, and an untraced run does not mount
// the middleware at all.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := r.Header.Get(reqHeader)
		if h == "" {
			next.ServeHTTP(w, r)
			return
		}
		start := t.clk.Now()
		next.ServeHTTP(w, r)
		end := t.clk.Now()
		if seq, err := strconv.ParseInt(h, 10, 64); err == nil {
			t.add(span{Name: "server.handler", ID: handlerSpanID(seq), Parent: clientSpanID(seq), Req: seq, Start: start, End: end})
		}
	})
}

// selfTimes returns each span's duration minus the part of its interval that
// its child spans cover; overlapping children are not subtracted twice.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// traceFile is what a traced run leaves behind.
type traceFile struct {
	Env     map[string]string  `json:"env"`
	Metrics map[string]float64 `json:"metrics"`
	Spans   []span             `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
