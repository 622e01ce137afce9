// Package serve deploys a trained PMM for inference, playing the role
// torchserve plays in the paper (§4): a pool of workers consumes mutation
// queries asynchronously so the fuzzer's mutator never blocks on the model,
// and the server tracks the §5.5 performance characteristics (throughput at
// saturation, mean latency).
//
// The server is a multi-tenant platform: many campaigns share one model,
// one graph-encoding cache and one set of tensor arenas, with per-tenant
// queues scheduled by deterministic round-robin (tenant.go, sched.go), all
// served by one fixed pool of Options.Workers goroutines. A Server routes
// its own calls through an implicit default tenant.
//
// There is one admission path and no wall clock on it. Every query is keyed
// (Submit by its caller, Infer and InferAsync by the server's arrival
// counter), is refused only by a closed server, and waits for room in its
// tenant's bounded queue instead of failing. A fault-injection hook
// (internal/faultinject) plans by key whether each attempt is lost, failed,
// delayed or corrupted; a failed attempt is retried at once, up to
// maxRetries times, and an injected delay is counted, never slept. So a
// query's reply is a function of its key, whatever the host load. Each
// accepted query delivers exactly one Prediction; a failed query delivers
// one with Err set.
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/snowplow/internal/faultinject"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/nn"
	"github.com/repro/snowplow/internal/obs"
	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
)

// Query is one argument-localization request: the base test, its coverage
// traces, and the desired target blocks.
type Query struct {
	Prog    *prog.Prog
	Traces  [][]kernel.BlockID
	Targets []kernel.BlockID
}

// Prediction is the model's localization answer. Exactly one Prediction is
// delivered per accepted query; Err is non-nil when the query failed after
// exhausting its retry budget, in which case the caller should fall back to
// random localization, as Snowplow does when PMM cannot keep up.
type Prediction struct {
	// Slots are the argument slots predicted MUTATE.
	Slots []prog.GlobalSlot
	// Probs are the per-slot probabilities, aligned with Prog.AllSlots().
	Probs []float64
	// Latency is the queue+inference+retry time of this query.
	Latency time.Duration
	// ModelVersion identifies the hot-swap generation of the model that
	// served this prediction (0 = the model the server started with). A
	// batch is always served wholly by one version: the worker reads the
	// atomic model slot once per forward pass.
	ModelVersion int64
	// Err is the terminal failure, if the query could not be served.
	Err error
}

// Stats reports serving performance (§5.5) and the failure-model counters.
type Stats struct {
	// Served counts worker-completed inference attempts. It exceeds
	// Succeeded only across Close, when a worker finishes an attempt whose
	// query already failed with ErrServerClosed.
	Served int64
	// Rejected counts submissions refused outright (server closed).
	Rejected int64
	// Queries, Succeeded and Failed count accepted queries and their
	// terminal outcomes; once all replies are delivered,
	// Queries == Succeeded + Failed.
	Queries   int64
	Succeeded int64
	Failed    int64
	// QuotaRejected and Shed are always 0: the server has no tenant quota
	// and sheds nothing. They remain for readers that still sum them.
	QuotaRejected int64
	Shed          int64
	// Retries counts extra attempts beyond each query's first.
	Retries int64
	// Timeouts counts attempts whose reply was lost (injected drops,
	// failing with ErrDeadline).
	Timeouts int64
	// Batches counts model forward passes; with micro-batching enabled one
	// pass can serve many queries. BatchedQueries counts queries served in
	// passes of two or more, and AvgBatchSize is Served/Batches.
	Batches        int64
	BatchedQueries int64
	AvgBatchSize   float64
	// CacheHits/CacheMisses mirror the builder's graph-encoding cache
	// counters (zero when no cache is attached).
	CacheHits   int64
	CacheMisses int64
	// Injected fault counters, by kind.
	InjDropped   int64
	InjTransient int64
	InjCorrupt   int64
	// BatchFill is AvgBatchSize / Options.BatchSize — how full the
	// micro-batches ran (1.0 = every forward pass served a full batch).
	BatchFill float64
	// Quantized reports the serving precision: int8-representable weights,
	// served by the same fused kernels as float64 ones.
	Quantized bool
	// ModelVersion is the current hot-swap generation of the serving model
	// (0 until the first SwapModel).
	ModelVersion int64
	// Kernel snapshots the fused kernel counters and — when
	// kernel profiling is on — per-op kernel time (see nn.InferProfile).
	Kernel nn.InferProfile
	// MeanLatency averages over succeeded queries.
	MeanLatency time.Duration
	// Throughput is succeeded queries per second over the serving lifetime.
	Throughput float64
	// TenantCount reports the registered-tenant count.
	TenantCount int
}

// Sentinel errors. ErrServerClosed is returned (or delivered via
// Prediction.Err) for queries submitted to, or in flight across, Close.
// ErrDeadline (a lost reply) and ErrUnavailable (a failed attempt) are the
// terminal error of a query whose every attempt met an injected fault.
var (
	ErrServerClosed = errors.New("serve: server closed")
	ErrDeadline     = errors.New("serve: deadline exceeded")
	ErrUnavailable  = errors.New("serve: unavailable after retries")
)

// maxRetries is the number of extra attempts after a query's first.
const maxRetries = 2

// Options configures a Server. The zero value of any field takes a default.
type Options struct {
	// Workers is the inference pool size (the paper's GPU replicas), fixed
	// for the server's lifetime. Default 1. Pool size never changes
	// predictions — only how many attempts are in flight at once.
	Workers int
	// BatchSize is the micro-batch limit: a worker picking up a query
	// drains up to BatchSize-1 more already-queued queries — across
	// tenants, in scheduler order — and serves them all in one union-graph
	// forward pass (pmm.PredictBatch). Batching changes only throughput —
	// each query's prediction is bit-identical to an unbatched one.
	// Default 1 (no batching).
	BatchSize int
	// QueueSize bounds each tenant's pending-attempt queue; a submitter
	// facing a full queue waits for room. Default Workers*8*BatchSize, so a
	// saturated queue can feed every worker full batches.
	QueueSize int
	// Fault, when non-nil, is consulted once per attempt to inject
	// failures (see internal/faultinject). Nil serves faithfully.
	Fault faultinject.Injector
	// Metrics, when non-nil, receives the serving instrument bundle plus
	// pull-model gauges over the graph cache, tensor pool and inference
	// kernels (see OBSERVABILITY.md). Nil disables metrics at zero
	// measurable cost.
	Metrics *obs.Registry
	// Fused is ignored: every frozen forward runs the fused inference
	// kernels. It remains while the benchmark module (benchmark/) sets it.
	Fused bool
	// Quant int8-quantizes the model's large weights before serving
	// (pmm.Model.Quantize): the float64 weights are rewritten with their
	// dequantized values — a precision, served by the same kernels — and
	// the int8 codes are kept for the ~7× smaller checkpoint/transport form,
	// so predictions stay reproducible per seed. No-op if the model is
	// already quantized (e.g. loaded from a mixed-precision checkpoint).
	Quant bool
	// KernelProfile enables per-op kernel timing (nn.SetKernelProfiling,
	// process-wide): Stats.Kernel then reports time per kernel class.
	// Implied by Metrics so the nn_infer_*_ns gauges are live.
	KernelProfile bool
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 1
	}
	if o.QueueSize <= 0 {
		o.QueueSize = o.Workers * 8 * o.BatchSize
	}
	return o
}

// attempt is one unit of worker-pool work. done is buffered so the worker
// never blocks on a waiter that already gave up (on close). Attempts are
// pooled (attemptPool): a dispatcher that receives the result resets and
// recycles the struct and its channel; an abandoned attempt is left to the
// garbage collector, since the worker may still deliver into it.
type attempt struct {
	q    Query
	t    *tenant
	done chan attemptResult
	// enq is the enqueue instant, for the queue-wait accounting.
	enq time.Time
}

func (a *attempt) reset() {
	a.q = Query{}
	a.t = nil
	a.enq = time.Time{}
}

type attemptResult struct {
	slots   []prog.GlobalSlot
	probs   []float64
	version int64
}

// attemptPool recycles attempt structs and their reply channels through the
// dispatch path: steady-state inference allocates no per-attempt channel.
var attemptPool = sync.Pool{New: func() any {
	return &attempt{done: make(chan attemptResult, 1)}
}}

// modelSlot pairs a serving-ready model with its hot-swap generation. The
// server publishes exactly one slot at a time behind an atomic pointer:
// workers load it once per forward pass, so every batch — and therefore
// every reply — is attributable to exactly one version, and a swap can never
// be observed torn.
type modelSlot struct {
	m       *pmm.Model
	version int64
}

// Server runs a worker pool over a frozen model, fronted by per-query
// dispatchers that own retries and fault injection, and a cross-tenant
// scheduler that owns who is served next.
type Server struct {
	model   atomic.Pointer[modelSlot]
	builder *qgraph.Builder
	opts    Options

	sched    *sched
	def      *tenant
	workerWG sync.WaitGroup
	queryWG  sync.WaitGroup
	closeCh  chan struct{}
	started  time.Time
	// seq is the arrival counter that keys Infer/InferAsync queries.
	seq atomic.Uint64

	mu     sync.Mutex
	closed bool

	// m holds the obs instruments (nil-safe fields when Options.Metrics
	// is nil).
	m *serveMetrics

	served, rejected           atomic.Int64
	queries, succeeded, failed atomic.Int64
	retries, timeouts          atomic.Int64
	batches, batchedQueries    atomic.Int64
	injDropped, injTransient   atomic.Int64
	injCorrupt                 atomic.Int64
	totalLat                   atomic.Int64 // nanoseconds, succeeded queries
}

// NewServer creates and starts a server with the given number of worker
// goroutines and default options. The model is frozen for concurrent
// inference.
func NewServer(model *pmm.Model, builder *qgraph.Builder, workers int) *Server {
	return NewServerOpts(model, builder, Options{Workers: workers})
}

// NewServerOpts creates and starts a server with explicit options.
func NewServerOpts(model *pmm.Model, builder *qgraph.Builder, opts Options) *Server {
	opts = opts.withDefaults()
	if err := prepareModel(model, opts); err != nil {
		// Quantization fails only on a registry/model shape mismatch —
		// a programming error, not an input condition.
		panic("serve: prepare model: " + err.Error())
	}
	if opts.KernelProfile || opts.Metrics != nil {
		nn.SetKernelProfiling(true)
	}
	s := &Server{
		builder: builder,
		opts:    opts,
		sched:   newSched(),
		closeCh: make(chan struct{}),
		started: time.Now(),
		m:       newServeMetrics(opts.Metrics),
	}
	s.model.Store(&modelSlot{m: model})
	if opts.Metrics != nil {
		s.registerPullGauges(opts.Metrics)
	}
	def, err := s.sched.register(TenantConfig{Name: "default"}, s, opts.QueueSize)
	if err != nil {
		panic("serve: register default tenant: " + err.Error())
	}
	s.def = def
	s.m.tenantCount.Set(1)
	s.workerWG.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.workerLoop()
	}
	return s
}

// prepareModel makes a model serving-ready under the server's options:
// frozen for concurrent fused inference (a model frozen before keeps its
// warm block memo) and quantized when the server serves at int8 precision.
// Every swapped-in checkpoint passes through here, so a hot swap can never
// silently change the precision the campaign was configured with.
func prepareModel(m *pmm.Model, opts Options) error {
	m.Freeze()
	if opts.Quant && !m.Quantized() {
		return m.Quantize()
	}
	return nil
}

// Model returns the currently served model (the latest swapped-in
// generation). The returned model is frozen and safe for concurrent
// read-only use, but callers must not mutate it.
func (s *Server) Model() *pmm.Model { return s.model.Load().m }

// ModelVersion returns the current hot-swap generation (0 until the first
// SwapModel).
func (s *Server) ModelVersion() int64 { return s.model.Load().version }

// SwapModel atomically replaces the serving model with a new checkpoint
// generation, without pausing workers or in-flight queries: batches already
// holding the old slot finish on the old model, batches picked up after the
// store run wholly on the new one. The model is prepared (Freeze, and
// Quantize when the server's options demand it) before it becomes visible. Versions are monotonic: a swap at or below the current
// version is a no-op returning false, which makes concurrent swap attempts
// of the same generation — e.g. every tenant of a shared cluster server
// applying the same coordinator push — idempotent.
func (s *Server) SwapModel(m *pmm.Model, version int64) (bool, error) {
	if m == nil {
		return false, errors.New("serve: swap of nil model")
	}
	if err := prepareModel(m, s.opts); err != nil {
		return false, fmt.Errorf("serve: prepare swapped model: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if version <= s.model.Load().version {
		return false, nil
	}
	s.model.Store(&modelSlot{m: m, version: version})
	return true, nil
}

// GraphCacheCapacity reports the builder's graph-encoding cache capacity
// (0 when no cache is attached). Campaigns use it to mirror the cache's LRU
// policy in deterministic, schedule-independent accounting.
func (s *Server) GraphCacheCapacity() int {
	if s.builder.Cache == nil {
		return 0
	}
	return s.builder.Cache.Capacity()
}

// workerLoop serves scheduler batches until the server closes. With BatchSize > 1 it opportunistically
// tops the batch up with whatever is already queued — never waiting for a
// batch to fill, an idle queue must not add latency — and serves the whole
// micro-batch in one union-graph forward pass.
func (s *Server) workerLoop() {
	defer s.workerWG.Done()
	maxBatch := s.opts.BatchSize
	batch := make([]*attempt, 0, maxBatch)
	gs := make([]*qgraph.Graph, 0, maxBatch)
	for {
		batch = s.sched.popBlocking(batch[:0], 1)
		if len(batch) == 0 {
			return
		}
		if maxBatch > 1 {
			if s.sched.depth() == 0 {
				// Yield once so dispatchers that are runnable but not yet
				// scheduled can enqueue; without this, pickup ping-pongs
				// worker and dispatcher on a loaded single-core host and
				// batches never form. Skipped when the queue already holds
				// work — yielding then would only starve serving behind
				// compute-heavy goroutines. Free when nothing else runs.
				runtime.Gosched()
			}
			batch = s.sched.popMore(batch, maxBatch-len(batch))
		}
		s.serveBatch(batch, &gs)
	}
}

// serveBatch runs one union-graph forward pass over a scheduler batch and
// delivers each attempt's result, attributing cache traffic, batch shares
// and queue waits to the owning tenants.
func (s *Server) serveBatch(batch []*attempt, gs *[]*qgraph.Graph) {
	cached := s.builder.Cache != nil
	now := time.Now()
	for _, at := range batch {
		wait := now.Sub(at.enq).Nanoseconds()
		s.m.queueWait.Observe(wait)
		at.t.queueWaitNs.Add(wait)
		at.t.queueWaited.Add(1)
	}
	if s.opts.Metrics != nil {
		s.m.queueDepth.Set(int64(s.sched.depth()))
		s.m.batchSize.Observe(int64(len(batch)))
	}
	g := (*gs)[:0]
	for _, at := range batch {
		bg, hit := s.builder.BuildCached(at.q.Prog, at.q.Traces, at.q.Targets)
		g = append(g, bg)
		if cached {
			if hit {
				at.t.cacheHits.Add(1)
			} else {
				at.t.cacheMisses.Add(1)
			}
		}
	}
	*gs = g
	slot := s.model.Load()
	slots, probs := slot.m.PredictBatch(g)
	s.batches.Add(1)
	s.m.batches.Inc()
	if len(batch) > 1 {
		s.batchedQueries.Add(int64(len(batch)))
		s.m.batchedQueries.Add(int64(len(batch)))
	}
	// All per-attempt bookkeeping happens before any result is delivered:
	// the first send hands the attempt back to its dispatcher, which may
	// reset and recycle it while this loop is still walking the batch.
	for i, at := range batch {
		// Credit each distinct tenant's batch share once per pass.
		shared := false
		for j := 0; j < i; j++ {
			if batch[j].t == at.t {
				shared = true
				break
			}
		}
		if !shared {
			at.t.batches.Add(1)
		}
		s.served.Add(1)
		at.t.served.Add(1)
	}
	for i, at := range batch {
		at.done <- attemptResult{slots: slots[i], probs: probs[i], version: slot.version}
	}
}

// accept is admission: it refuses only on a closed server (no Prediction is
// owed) and otherwise registers the query as in flight.
func (s *Server) accept(t *tenant) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.rejected.Add(1)
		s.m.rejected.Inc()
		t.rejected.Add(1)
		return ErrServerClosed
	}
	s.queryWG.Add(1)
	s.mu.Unlock()
	s.queries.Add(1)
	s.m.queries.Inc()
	s.m.tenantAdmitted.Inc()
	t.queries.Add(1)
	return nil
}

// Submit submits a query and returns a channel delivering exactly one
// prediction (with Err set on terminal failure). Faults are planned by key:
// the same query under the same key gets the same reply on any host, in any
// arrival order. A campaign keys its queries by seed, VM and query count,
// and reads each reply only at its next epoch barrier. The error is non-nil
// only if the server is closed.
func (s *Server) Submit(q Query, key uint64) (<-chan Prediction, error) {
	return s.submit(s.def, q, key)
}

// InferAsync is Submit keyed by the server's arrival counter.
func (s *Server) InferAsync(q Query) (<-chan Prediction, error) {
	return s.submit(s.def, q, s.seq.Add(1)-1)
}

// Infer is the blocking form of InferAsync.
func (s *Server) Infer(q Query) (Prediction, error) {
	return s.infer(s.def, q)
}

func (s *Server) submit(t *tenant, q Query, key uint64) (<-chan Prediction, error) {
	if err := s.accept(t); err != nil {
		return nil, err
	}
	reply := make(chan Prediction, 1)
	go func() {
		reply <- s.dispatch(t, q, key)
	}()
	return reply, nil
}

func (s *Server) infer(t *tenant, q Query) (Prediction, error) {
	if err := s.accept(t); err != nil {
		return Prediction{}, err
	}
	// The blocking path dispatches inline: no goroutine, no reply channel.
	p := s.dispatch(t, q, s.seq.Add(1)-1)
	if p.Err != nil {
		return Prediction{}, p.Err
	}
	return p, nil
}

// dispatch owns one accepted query end to end: it plans faults by key,
// enqueues attempts on the scheduler, retries, and returns exactly one
// terminal Prediction.
func (s *Server) dispatch(t *tenant, q Query, key uint64) Prediction {
	start := time.Now()
	finish := func(p Prediction) Prediction {
		p.Latency = time.Since(start)
		if p.Err != nil {
			s.failed.Add(1)
			s.m.failed.Inc()
			t.failed.Add(1)
		} else {
			s.succeeded.Add(1)
			s.totalLat.Add(int64(p.Latency))
			s.m.succeeded.Inc()
			t.succeeded.Add(1)
		}
		s.m.latency.Observe(p.Latency.Nanoseconds())
		s.queryWG.Done()
		return p
	}
	lastErr := ErrUnavailable
	for att := 0; att <= maxRetries; att++ {
		if att > 0 {
			s.retries.Add(1)
			s.m.retries.Inc()
		}
		var d faultinject.Decision
		if s.opts.Fault != nil {
			d = s.opts.Fault.Plan(key, att)
		}
		switch d.Fault {
		case faultinject.FaultTransient:
			s.injTransient.Add(1)
			s.m.injTransient.Inc()
			lastErr = ErrUnavailable
			continue
		case faultinject.FaultDrop:
			// The reply is lost. The wait for it is not reproduced in wall
			// clock: simulated time lives in the fuzzer's budget.
			s.injDropped.Add(1)
			s.m.injDropped.Inc()
			s.timeouts.Add(1)
			s.m.timeouts.Inc()
			lastErr = ErrDeadline
			continue
		}
		res, err := s.runAttempt(t, q)
		if err != nil {
			return finish(Prediction{Err: err})
		}
		if d.Fault == faultinject.FaultCorrupt {
			s.injCorrupt.Add(1)
			s.m.injCorrupt.Inc()
			res = corruptResult(key, q, res)
		}
		return finish(Prediction{Slots: res.slots, Probs: res.probs, ModelVersion: res.version})
	}
	return finish(Prediction{Err: lastErr})
}

// runAttempt enqueues one attempt on the scheduler, waiting for queue room,
// and waits for its result. It fails only with ErrServerClosed.
func (s *Server) runAttempt(t *tenant, q Query) (attemptResult, error) {
	a := attemptPool.Get().(*attempt)
	a.q = q
	a.t = t
	a.enq = time.Now()
	if err := s.sched.enqueue(a); err != nil {
		// Never reached a worker: the struct and channel are clean.
		a.reset()
		attemptPool.Put(a)
		return attemptResult{}, err
	}
	select {
	case r := <-a.done:
		a.reset()
		attemptPool.Put(a)
		return r, nil
	case <-s.closeCh:
		// The worker may still deliver into a.done; the attempt is
		// abandoned to the GC rather than recycled.
		return attemptResult{}, ErrServerClosed
	}
}

// corruptResult deterministically scrambles a prediction: slot references
// that may point outside the program and probabilities outside [0, 1].
// Consumers must treat predictions as untrusted input.
func corruptResult(key uint64, q Query, res attemptResult) attemptResult {
	r := rng.New(key*0xa0761d6478bd642f + 0xbad)
	n := 1 + r.Intn(4)
	slots := make([]prog.GlobalSlot, n)
	for i := range slots {
		slots[i] = prog.GlobalSlot{
			Call: r.Intn(2*len(q.Prog.Calls)+2) - 1,
			Slot: r.Intn(16) - 1,
		}
	}
	probs := make([]float64, len(res.probs))
	for i := range probs {
		probs[i] = 2*r.Float64() - 0.5
	}
	return attemptResult{slots: slots, probs: probs}
}

// Stats returns a snapshot of serving statistics.
func (s *Server) Stats() Stats {
	succeeded := s.succeeded.Load()
	var mean time.Duration
	if succeeded > 0 {
		mean = time.Duration(s.totalLat.Load() / succeeded)
	}
	elapsed := time.Since(s.started).Seconds()
	var tput float64
	if elapsed > 0 {
		tput = float64(succeeded) / elapsed
	}
	batches := s.batches.Load()
	var avgBatch float64
	if batches > 0 {
		avgBatch = float64(s.served.Load()) / float64(batches)
	}
	var cacheHits, cacheMisses int64
	if s.builder.Cache != nil {
		cs := s.builder.Cache.Stats()
		cacheHits, cacheMisses = cs.Hits, cs.Misses
	}
	var fill float64
	if batches > 0 && s.opts.BatchSize > 0 {
		fill = avgBatch / float64(s.opts.BatchSize)
	}
	slot := s.model.Load()
	return Stats{
		Served:         s.served.Load(),
		Rejected:       s.rejected.Load(),
		Queries:        s.queries.Load(),
		Succeeded:      succeeded,
		Failed:         s.failed.Load(),
		Retries:        s.retries.Load(),
		Timeouts:       s.timeouts.Load(),
		Batches:        batches,
		BatchedQueries: s.batchedQueries.Load(),
		AvgBatchSize:   avgBatch,
		BatchFill:      fill,
		Quantized:      slot.m.Quantized(),
		ModelVersion:   slot.version,
		Kernel:         slot.m.InferProfile(),
		CacheHits:      cacheHits,
		CacheMisses:    cacheMisses,
		InjDropped:     s.injDropped.Load(),
		InjTransient:   s.injTransient.Load(),
		InjCorrupt:     s.injCorrupt.Load(),
		MeanLatency:    mean,
		Throughput:     tput,
		TenantCount:    s.sched.numTenants(),
	}
}

// Close stops the server. In-flight queries complete promptly: each still
// delivers exactly one Prediction, with Err set to ErrServerClosed if it was
// interrupted. Submissions racing or following Close return ErrServerClosed.
// Close is idempotent and safe to call concurrently with submitters and
// other closers.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.closeCh)
	s.mu.Unlock()
	// Only the first closer reaches this point: close the scheduler, which
	// wakes the workers to drain out and every submitter waiting for queue
	// space to give up, then wait out every accepted query (all abort
	// promptly on closeCh) and the workers.
	s.sched.close()
	s.queryWG.Wait()
	s.workerWG.Wait()
}
