package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	u := time.Microsecond
	spans := []span{
		{Name: "client.request", ID: 2, Start: 0, End: 100 * u},
		{Name: "a", ID: 3, Parent: 2, Start: 10 * u, End: 30 * u},
		{Name: "b", ID: 4, Parent: 2, Start: 20 * u, End: 50 * u},  // overlaps a: 30..50 is new
		{Name: "c", ID: 5, Parent: 2, Start: 90 * u, End: 120 * u}, // outlives the parent: 90..100 counts
		{Name: "d", ID: 6, Parent: 4, Start: 25 * u, End: 35 * u},
		{Name: "other", ID: 8, Start: 0, End: 7 * u},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{2: 50 * u, 3: 20 * u, 4: 20 * u, 5: 30 * u, 6: 10 * u, 8: 7 * u} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestMiddlewareRecordsHandlerSpanUnderItsRequest(t *testing.T) {
	clk := &fakeClock{}
	tr := &tracer{clk: clk}
	h := tr.middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { clk.advance(4 * msec) }))

	req := httptest.NewRequest(http.MethodPost, estimatePath, nil)
	h.ServeHTTP(httptest.NewRecorder(), req)
	if got := tr.take(); len(got) != 0 {
		t.Fatalf("a request without %s left %d spans", reqHeader, len(got))
	}

	req.Header.Set(reqHeader, "41")
	h.ServeHTTP(httptest.NewRecorder(), req)
	got := tr.take()
	if len(got) != 1 {
		t.Fatalf("%d spans, want 1", len(got))
	}
	s := got[0]
	if s.Name != "server.handler" || s.Req != 41 || s.ID != handlerSpanID(41) || s.Parent != clientSpanID(41) || s.dur() != 4*msec {
		t.Errorf("span = %+v, want server.handler of request 41, child of its client.request, 4 ms long", s)
	}
	if a, b := tr.newID(), tr.newID(); a >= 0 || b >= 0 || a == b {
		t.Errorf("ids outside requests = %d, %d; want distinct and negative", a, b)
	}
}
