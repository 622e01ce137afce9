package serve

import (
	"fmt"
	"sync"
)

// Cross-tenant scheduling: a deterministic round-robin queue feeding the
// tenant-aware micro-batcher.
//
// Structure. Each tenant owns one bounded FIFO ring. The scheduler visits
// tenants in registration order from one cursor, takes one attempt from
// each backlogged tenant it visits and advances, so every saturated tenant
// receives an equal share regardless of arrival order. The cursor carries
// over from fill to fill, and the schedule is a pure function of queue
// contents, so replaying a campaign replays its service order.
//
// Batch formation. A worker's popBlocking/popMore calls fill a batch of up
// to Options.BatchSize attempts in scheduler order, so one union-graph
// pmm.PredictBatch forward pass serves several tenants at once and
// batch-fill stays high under mixed load: tenancy changes who is served
// next, not how efficiently.

// attemptRing is a fixed-capacity FIFO of queued attempts. Capacity is the
// server's Options.QueueSize, fixed at registration, so steady-state
// enqueue/pop never allocates.
type attemptRing struct {
	buf  []*attempt
	head int
	n    int
}

func (r *attemptRing) init(capacity int) { r.buf = make([]*attempt, capacity) }
func (r *attemptRing) full() bool        { return r.n == len(r.buf) }
func (r *attemptRing) empty() bool       { return r.n == 0 }

func (r *attemptRing) push(at *attempt) {
	r.buf[(r.head+r.n)%len(r.buf)] = at
	r.n++
}

func (r *attemptRing) pop() *attempt {
	at := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return at
}

// sched is the shared scheduler state. One mutex guards tenant
// registration, every queue ring and the cursor; workers block on cond
// when all queues are empty, and submitters block on space when their ring
// is full.
type sched struct {
	mu    sync.Mutex
	cond  *sync.Cond
	space *sync.Cond

	tenants []*tenant
	byName  map[string]*tenant
	// rr is the round-robin cursor: the index of the next tenant to visit.
	rr int
	// queued counts attempts across all rings.
	queued int
	closed bool
}

func newSched() *sched {
	sc := &sched{byName: make(map[string]*tenant)}
	sc.cond = sync.NewCond(&sc.mu)
	sc.space = sync.NewCond(&sc.mu)
	return sc
}

// register adds a tenant with an already-validated config and a ring of
// capacity ring.
func (sc *sched) register(cfg TenantConfig, s *Server, ring int) (*tenant, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.closed {
		return nil, ErrServerClosed
	}
	if _, dup := sc.byName[cfg.Name]; dup {
		return nil, fmt.Errorf("%w: duplicate tenant %q", ErrBadTenantConfig, cfg.Name)
	}
	t := &tenant{cfg: cfg, srv: s}
	t.q.init(ring)
	sc.tenants = append(sc.tenants, t)
	sc.byName[cfg.Name] = t
	return t, nil
}

func (sc *sched) numTenants() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.tenants)
}

func (sc *sched) snapshotTenants() []*tenant {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	out := make([]*tenant, len(sc.tenants))
	copy(out, sc.tenants)
	return out
}

// enqueue queues one attempt on its tenant's ring. The caller has
// already passed admission; this enforces only the per-tenant queue bound:
// on a full ring it blocks until a pop makes room, or fails with
// ErrServerClosed once the scheduler closes.
func (sc *sched) enqueue(at *attempt) error {
	sc.mu.Lock()
	r := &at.t.q
	for !sc.closed && r.full() {
		sc.space.Wait()
	}
	if sc.closed {
		sc.mu.Unlock()
		return ErrServerClosed
	}
	r.push(at)
	sc.queued++
	sc.cond.Signal()
	sc.mu.Unlock()
	return nil
}

// depth reports the total queued attempts (the serve_queue_depth gauge's
// source).
func (sc *sched) depth() int {
	sc.mu.Lock()
	d := sc.queued
	sc.mu.Unlock()
	return d
}

// popBlocking waits until work is queued and fills batch (in scheduler
// order) with up to max attempts. It returns an empty batch once the server
// has closed, telling the worker to exit.
func (sc *sched) popBlocking(batch []*attempt, max int) []*attempt {
	sc.mu.Lock()
	for {
		if sc.closed {
			sc.mu.Unlock()
			return batch
		}
		if sc.queued > 0 {
			break
		}
		sc.cond.Wait()
	}
	batch = sc.fillLocked(batch, max)
	sc.mu.Unlock()
	return batch
}

// popMore tops up a batch without blocking.
func (sc *sched) popMore(batch []*attempt, max int) []*attempt {
	if max <= 0 {
		return batch
	}
	sc.mu.Lock()
	if !sc.closed && sc.queued > 0 {
		batch = sc.fillLocked(batch, max)
	}
	sc.mu.Unlock()
	return batch
}

// fillLocked takes up to room attempts into batch, one per backlogged
// tenant per visit, advancing the cursor past every tenant it visits.
// Requires sc.mu held.
func (sc *sched) fillLocked(batch []*attempt, room int) []*attempt {
	n := len(sc.tenants)
	for ; room > 0 && sc.queued > 0; sc.rr = (sc.rr + 1) % n {
		r := &sc.tenants[sc.rr].q
		if r.empty() {
			continue
		}
		if r.full() {
			sc.space.Broadcast() // the pop below makes room for a waiting enqueue
		}
		batch = append(batch, r.pop())
		sc.queued--
		room--
	}
	return batch
}

// close wakes every worker and every waiting enqueue so they observe the
// closed flag and return. Queued attempts are left in the rings: their
// dispatchers are already aborting on closeCh, and each attempt's done
// channel is buffered, so nothing blocks.
func (sc *sched) close() {
	sc.mu.Lock()
	sc.closed = true
	sc.cond.Broadcast()
	sc.space.Broadcast()
	sc.mu.Unlock()
}
