package serve

import (
	"fmt"
	"sync"
)

// Cross-tenant scheduling: a deterministic weighted-fair queue with strict
// priority bands, feeding the tenant-aware micro-batcher.
//
// Structure. Each tenant owns one bounded FIFO ring per priority band. The
// scheduler serves the directed band to exhaustion before touching the
// background band; inside a band, tenants are served by deficit round-robin
// (Shreedhar & Varghese): visiting a backlogged tenant adds its weight to a
// deficit counter, the visit dequeues up to that deficit (each query costs
// one), and the round-robin pointer only advances when the deficit or the
// backlog is spent. Over any saturated interval every tenant therefore
// receives service proportional to its weight, regardless of arrival order
// — and the schedule is a pure function of queue contents, so replaying a
// campaign replays its service order.
//
// Batch formation. A worker's popBlocking/popMore calls fill a batch of up
// to Options.BatchSize attempts in scheduler order, so one union-graph
// pmm.PredictBatch forward pass serves several tenants at once and
// batch-fill stays high under mixed load: tenancy changes who is served
// next, not how efficiently.

// attemptRing is a fixed-capacity FIFO of queued attempts. Capacity is the
// tenant's QueueSize, fixed at registration, so steady-state enqueue/pop
// never allocates.
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
// registration, every queue ring and the DRR cursors; workers block on cond
// when all queues are empty.
type sched struct {
	mu   sync.Mutex
	cond *sync.Cond

	tenants []*tenant
	byName  map[string]*tenant
	// rr is the deficit-round-robin cursor per band: the index (mod tenant
	// count) of the tenant whose turn is in progress.
	rr [numPriorities]int
	// queued counts attempts across all rings; perBand splits it by band.
	queued  int
	perBand [numPriorities]int
	closed  bool
}

func newSched() *sched {
	sc := &sched{byName: make(map[string]*tenant)}
	sc.cond = sync.NewCond(&sc.mu)
	return sc
}

// register adds a tenant with an already-validated, defaulted config.
func (sc *sched) register(cfg TenantConfig, s *Server) (*tenant, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.closed {
		return nil, ErrServerClosed
	}
	if _, dup := sc.byName[cfg.Name]; dup {
		return nil, fmt.Errorf("%w: duplicate tenant %q", ErrBadTenantConfig, cfg.Name)
	}
	t := &tenant{cfg: cfg, idx: len(sc.tenants), srv: s}
	for band := range t.q {
		t.q[band].init(cfg.QueueSize)
	}
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

// enqueue queues one attempt on its tenant's band ring. The caller has
// already passed admission; this enforces only the per-tenant queue bound.
func (sc *sched) enqueue(at *attempt) error {
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return ErrServerClosed
	}
	r := &at.t.q[at.prio]
	if r.full() {
		sc.mu.Unlock()
		return ErrQueueFull
	}
	r.push(at)
	sc.queued++
	sc.perBand[at.prio]++
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

// fillLocked drains bands highest-first into batch, taking at most room
// attempts. Requires sc.mu held and sc.queued > 0 checked by the caller.
func (sc *sched) fillLocked(batch []*attempt, room int) []*attempt {
	for band := numPriorities - 1; band >= 0 && room > 0; band-- {
		n := 0
		batch, n = sc.fillBandLocked(batch, room, band)
		room -= n
	}
	return batch
}

// fillBandLocked runs the DRR service loop over one band. It may stop
// mid-tenant when room runs out; the cursor and the tenant's remaining
// deficit are preserved, so the next fill resumes the interrupted turn
// without re-crediting it.
func (sc *sched) fillBandLocked(batch []*attempt, room, band int) ([]*attempt, int) {
	taken := 0
	n := len(sc.tenants)
	for room > 0 && sc.perBand[band] > 0 {
		t := sc.tenants[sc.rr[band]%n]
		r := &t.q[band]
		if r.empty() {
			t.deficit[band] = 0
			sc.rr[band] = (sc.rr[band] + 1) % n
			continue
		}
		if t.deficit[band] <= 0 {
			t.deficit[band] += t.cfg.Weight
		}
		for t.deficit[band] > 0 && !r.empty() && room > 0 {
			batch = append(batch, r.pop())
			t.deficit[band]--
			room--
			taken++
			sc.queued--
			sc.perBand[band]--
		}
		if r.empty() {
			t.deficit[band] = 0
		}
		if t.deficit[band] <= 0 || r.empty() {
			sc.rr[band] = (sc.rr[band] + 1) % n
		}
	}
	return batch, taken
}

// close wakes every worker so they observe the closed flag and exit. Queued
// attempts are left in the rings: their dispatchers are already aborting on
// closeCh, and each attempt's done channel is buffered, so nothing blocks.
func (sc *sched) close() {
	sc.mu.Lock()
	sc.closed = true
	sc.cond.Broadcast()
	sc.mu.Unlock()
}
