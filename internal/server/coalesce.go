package server

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"neurocard/internal/core"
)

// Estimate lanes serve single-query requests: one bounded server-wide queue
// (admission control — a full queue answers 429 + Retry-After instead of
// growing latency without bound) drained by as many persistent lane
// goroutines as batch estimates get workers (Config.Workers, default
// GOMAXPROCS). A lane takes one pending request and runs its estimate, on
// the registry entry the handler admitted it with, on its own goroutine with
// inline kernels. Concurrent requests run
// on concurrent lanes, one per core; a request arriving while every lane is
// busy waits in the queue for the first to finish. Each request carries its
// own (seed, idx) randomness, so who else is in flight never changes a
// result. See DESIGN.md §2.5.

// Lane sentinel errors, mapped onto HTTP statuses by the handler.
var (
	// errSaturated reports an admission-control rejection: the pending
	// queue is full. Handlers answer 429 with Retry-After.
	errSaturated = errors.New("server: estimate queue saturated, retry later")
	// errClosing reports a request caught in server shutdown.
	errClosing = errors.New("server: shutting down")
)

// pendingEstimate is one enqueued single-query request waiting for a lane.
// Pooled: the done channel is reused across requests. The item's Ctx carries
// the request's deadline onto the lane, so a request that expired while
// queued is skipped and one that expires mid-sampling stops cooperatively.
type pendingEstimate struct {
	entry    *Entry // the entry the request was admitted with
	item     core.BatchItem
	enqueued time.Time
	done     chan laneResult
}

type laneResult struct {
	est float64
	err error
}

var pendingPool = sync.Pool{
	New: func() any { return &pendingEstimate{done: make(chan laneResult, 1)} },
}

// laneEstimate submits one single-query estimate item to the lanes and
// waits for its result. The lane runs it on e, the entry the request was
// admitted with, so its breaker and its estimator are one generation.
func (s *Server) laneEstimate(e *Entry, it core.BatchItem) (float64, error) {
	p := pendingPool.Get().(*pendingEstimate)
	p.entry, p.item, p.enqueued = e, it, time.Now()
	select {
	case s.queue <- p:
	default:
		p.entry, p.item = nil, core.BatchItem{}
		pendingPool.Put(p)
		s.metrics.laneRejected.Add(1)
		return 0, errSaturated
	}
	select {
	case res := <-p.done:
		p.entry, p.item = nil, core.BatchItem{} // drop references before pooling
		pendingPool.Put(p)
		return res.est, res.err
	case <-s.closing:
		// The pending stays un-pooled: a lane may still write its done
		// channel after we stop listening.
		return 0, errClosing
	case <-it.Ctx.Done():
		// Deadline expired (or the client hung up) while queued or running.
		// The pending stays un-pooled for the same reason as above; the item
		// carries ctx, so a lane skips it or stops its sampling.
		return 0, it.Ctx.Err()
	}
}

// lane is one estimate lane's loop: serve pendings one at a time until the
// server closes.
func (s *Server) lane() {
	defer s.laneWG.Done()
	for {
		select {
		case p := <-s.queue:
			s.serve(p)
		case <-s.closing:
			return
		}
	}
}

// serve runs one pending on the calling lane and answers it exactly once.
// EstimateItem already turns an expired context into its error (without
// checking out a session) and a panic inside the estimate into an
// ErrEstimatePanic error; the recover here is the second line of defense — a
// bug in EstimateItem itself fails one request instead of killing the lane
// and stranding everything queued behind it.
func (s *Server) serve(p *pendingEstimate) {
	m := s.metrics
	m.laneConcurrency.observe(float64(s.lanesBusy.Add(1)))
	m.laneQueueDepth.observe(float64(len(s.queue)))
	m.laneQueueWait.observeDuration(time.Since(p.enqueued))
	var res laneResult
	defer func() {
		if r := recover(); r != nil {
			res = laneResult{err: fmt.Errorf("%w: %v", core.ErrEstimatePanic, r)}
		}
		if errors.Is(res.err, core.ErrEstimatePanic) {
			m.panicsTotal.Add(1)
		}
		s.lanesBusy.Add(-1)
		p.done <- res
	}()
	res.est, res.err = p.entry.Est.EstimateItem(p.item)
}

// estimateWorkers bounds the concurrency of one estimate call: Config.Workers
// (0 = GOMAXPROCS), capped at the core count and the batch size.
// estimateWorkers(math.MaxInt) is the lane count.
func (s *Server) estimateWorkers(batchLen int) int {
	maxWorkers := runtime.GOMAXPROCS(0)
	workers := s.cfg.Workers
	if workers <= 0 || workers > maxWorkers {
		workers = maxWorkers
	}
	if workers > batchLen {
		workers = batchLen
	}
	return workers
}

// startLanes launches the lane goroutines; Close stops and waits for them.
func (s *Server) startLanes() {
	s.lanes = s.estimateWorkers(math.MaxInt)
	s.laneWG.Add(s.lanes)
	for i := 0; i < s.lanes; i++ {
		go s.lane()
	}
}

// laneStats is a point-in-time snapshot of the lanes, surfaced on /metrics.
type laneStats struct {
	lanes, busy, queued int
}

func (s *Server) laneStats() laneStats {
	return laneStats{lanes: s.lanes, busy: int(s.lanesBusy.Load()), queued: len(s.queue)}
}
