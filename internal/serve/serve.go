// Package serve deploys a trained PMM for inference, playing the role
// torchserve plays in the paper (§4): a pool of workers consumes mutation
// queries asynchronously so the fuzzer's mutator never blocks on the model,
// and the server tracks the §5.5 performance characteristics (throughput at
// saturation, mean latency).
//
// Since PR 8 the server is a multi-tenant platform: many campaigns share
// one model, one graph-encoding cache and one set of tensor arenas, with
// per-tenant queues scheduled by deterministic deficit round-robin under
// strict priority classes (tenant.go, sched.go), per-tenant quotas and
// SLO-aware shedding at admission, all served by one fixed pool of
// Options.Workers goroutines. The single-campaign API is unchanged — a
// Server routes Infer/InferAsync through an implicit default tenant whose
// behavior is bit-identical to the pre-tenancy server.
//
// Unlike a lab-bench server, this one has a failure story. Every query gets
// a bounded retry budget, and a fault-injection hook (internal/faultinject)
// can lose, delay, fail, or corrupt attempts. Service traffic
// (Infer/InferAsync) also gets a per-attempt deadline, a bounded queue,
// seeded exponential backoff and a rolling health tracker; campaign traffic
// (Submit) gets none of these wall-clock parts. Each accepted query
// delivers exactly one Prediction on its reply channel; a failed query
// delivers one with Err set.
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
	// Priority optionally raises the query's class above its tenant's
	// default (it never lowers it): directed-mode runners tag
	// PriorityDirected so their queries outrank background snowplow
	// traffic on a shared server. Zero keeps the tenant default.
	Priority Priority
}

// Prediction is the model's localization answer. Exactly one Prediction is
// delivered per accepted query; Err is non-nil when the query failed after
// exhausting its deadline/retry budget, in which case the caller should fall
// back to random localization, as Snowplow does when PMM cannot keep up.
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
	// Served counts worker-completed inference attempts (it can exceed
	// Succeeded: an attempt whose waiter already timed out still ran).
	Served int64
	// Rejected counts submissions refused outright (server closed).
	Rejected int64
	// Queries, Succeeded and Failed count accepted queries and their
	// terminal outcomes; once all replies are delivered,
	// Queries == Succeeded + Failed.
	Queries   int64
	Succeeded int64
	Failed    int64
	// QuotaRejected and Shed count admission-control refusals: tenant
	// quota overruns and SLO/health sheds of background-class queries.
	QuotaRejected int64
	Shed          int64
	// Retries counts extra attempts beyond each query's first.
	Retries int64
	// Timeouts counts attempts that hit the per-query deadline.
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
	InjLatency   int64
	InjCorrupt   int64
	// BatchFill is AvgBatchSize / Options.BatchSize — how full the
	// micro-batches ran (1.0 = every forward pass served a full batch).
	BatchFill float64
	// Fused reports which inference path served the run, Quantized which
	// precision (int8-representable weights, served by that same path).
	Fused     bool
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
	// ErrorRate is the failure fraction over the rolling health window.
	ErrorRate float64
	// Healthy mirrors Server.Healthy at snapshot time.
	Healthy bool
	// TenantCount reports the registered-tenant count.
	TenantCount int
}

// Sentinel errors. ErrServerClosed is returned (or delivered via
// Prediction.Err) for queries submitted to, or in flight across, Close.
// ErrQuotaExceeded and ErrShed are admission refusals: the query was never
// accepted, no Prediction is owed, and neither counts against health.
var (
	ErrServerClosed  = errors.New("serve: server closed")
	ErrDeadline      = errors.New("serve: deadline exceeded")
	ErrQueueFull     = errors.New("serve: queue full")
	ErrUnavailable   = errors.New("serve: unavailable after retries")
	ErrQuotaExceeded = errors.New("serve: tenant quota exceeded")
	ErrShed          = errors.New("serve: shed by admission control")
)

// Options configures a Server. The zero value of any field takes a default.
type Options struct {
	// Workers is the inference pool size (the paper's GPU replicas), fixed
	// for the server's lifetime. Default 1. Pool size never changes
	// predictions — only how many attempts are in flight at once.
	Workers int
	// SLOQueueWait enables SLO-aware shedding: when the smoothed queue
	// wait exceeds it — or the health tracker reports the server degraded —
	// background-class submissions are refused with ErrShed at admission.
	// Directed-class queries are never shed. Zero disables shedding, which
	// keeps deterministic single-campaign replays byte-identical.
	SLOQueueWait time.Duration
	// BatchSize is the micro-batch limit: a worker picking up a query
	// drains up to BatchSize-1 more already-queued queries — across
	// tenants, in scheduler order — and serves them all in one union-graph
	// forward pass (pmm.PredictBatch). Batching changes only throughput —
	// each query's prediction is bit-identical to an unbatched one.
	// Default 1 (no batching).
	BatchSize int
	// QueueSize bounds each tenant's pending-attempt queue (the default
	// for TenantConfig.QueueSize). Default Workers*8*BatchSize, so a
	// saturated queue can feed every worker full batches.
	QueueSize int
	// Deadline bounds one service attempt's queue+inference wait (Submit
	// has none). Default 5s.
	Deadline time.Duration
	// MaxRetries is the number of extra attempts after the first.
	// Default 2; pass a negative value for no retries.
	MaxRetries int
	// BackoffBase and BackoffMax shape the exponential backoff between
	// service attempts (Submit retries at once): attempt k waits
	// Base<<(k-1) plus seeded jitter in [0, Base), capped at Max. Defaults
	// 1ms / 100ms.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BackoffSeed seeds the retry jitter (per query sequence number, not
	// wall clock), keeping retry schedules reproducible. Default 0x5eed.
	BackoffSeed uint64
	// Fault, when non-nil, is consulted once per attempt to inject
	// failures (see internal/faultinject). Nil serves faithfully.
	Fault faultinject.Injector
	// HealthWindow is the rolling-outcome window size. Default 64.
	HealthWindow int
	// HealthMinSamples is how many outcomes must be observed before the
	// server can report unhealthy. Default 16.
	HealthMinSamples int
	// UnhealthyAt is the window error rate at or above which the server
	// reports unhealthy. Default 0.5.
	UnhealthyAt float64
	// Metrics, when non-nil, receives the serving instrument bundle plus
	// pull-model gauges over the graph cache, tensor pool and inference
	// kernels (see OBSERVABILITY.md). Nil disables metrics at zero
	// measurable cost.
	Metrics *obs.Registry
	// Fused routes frozen forwards through the fused inference kernels
	// (pmm.Model.EnableFused): linear+bias+ReLU, attention and add+LayerNorm
	// collapse into single arena-aware kernels, bit-identical to the unfused
	// chain. cmd/snowplow passes -fused (default true).
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
	if o.Deadline <= 0 {
		o.Deadline = 5 * time.Second
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	} else if o.MaxRetries == 0 {
		o.MaxRetries = 2
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 100 * time.Millisecond
	}
	if o.BackoffSeed == 0 {
		o.BackoffSeed = 0x5eed
	}
	if o.HealthWindow <= 0 {
		o.HealthWindow = 64
	}
	if o.HealthMinSamples <= 0 {
		o.HealthMinSamples = 16
	}
	if o.UnhealthyAt <= 0 {
		o.UnhealthyAt = 0.5
	}
	return o
}

// attempt is one unit of worker-pool work. done is buffered so the worker
// never blocks on a waiter that already gave up (deadline or close).
// Attempts are pooled (attemptPool): a dispatcher that receives the result
// resets and recycles the struct and its channel; an abandoned attempt is
// left to the garbage collector, since the worker may still deliver into it.
type attempt struct {
	q    Query
	t    *tenant
	prio Priority
	done chan attemptResult
	// enq is the enqueue instant for the queue-wait histogram and the SLO
	// tracker; zero when both are disabled (time.Now is skipped entirely).
	enq time.Time
}

func (a *attempt) reset() {
	a.q = Query{}
	a.t = nil
	a.prio = 0
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

// timerPool recycles deadline/backoff timers. A timer is recycled only by
// the goroutine that owns its channel, after Stop-and-drain (or after its
// fire was consumed), so Reset on reuse is race-free.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if v := timerPool.Get(); v != nil {
		t := v.(*time.Timer)
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func putTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

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
// dispatchers that own deadlines, retries, and fault injection, and a
// cross-tenant scheduler that owns who is served next.
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
	seq      atomic.Uint64

	mu     sync.Mutex
	closed bool

	health *healthTracker

	// ewmaWaitNs smooths observed queue waits for SLO shedding; sloOn
	// gates the time.Now calls it needs.
	ewmaWaitNs atomic.Int64
	sloOn      bool

	// m holds the obs instruments (nil-safe fields when Options.Metrics
	// is nil); obsOn gates the time.Now calls metrics need.
	m     *serveMetrics
	obsOn bool

	served, rejected           atomic.Int64
	queries, succeeded, failed atomic.Int64
	quotaRejected, shed        atomic.Int64
	retries, timeouts          atomic.Int64
	batches, batchedQueries    atomic.Int64
	injDropped, injTransient   atomic.Int64
	injLatency, injCorrupt     atomic.Int64
	totalLat                   atomic.Int64 // nanoseconds, succeeded queries
}

// NewServer creates and starts a server with the given number of worker
// goroutines and default robustness options. The model is frozen for
// concurrent inference.
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
		health:  newHealthTracker(opts.HealthWindow),
		sloOn:   opts.SLOQueueWait > 0,
		m:       newServeMetrics(opts.Metrics),
		obsOn:   opts.Metrics != nil,
	}
	s.model.Store(&modelSlot{m: model})
	if opts.Metrics != nil {
		s.registerPullGauges(opts.Metrics)
	}
	// The default tenant carries the pre-tenancy contract: weight 1,
	// background class, and no quota (admission bounded only by the
	// retryable queue, exactly as before multi-tenancy).
	def, err := s.sched.register(TenantConfig{
		Name:      "default",
		Weight:    1,
		Quota:     int(^uint(0) >> 1),
		QueueSize: opts.QueueSize,
	}, s)
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
// frozen for concurrent pooled inference, quantized when the server serves
// at int8 precision, fused when the server serves fused kernels. Every
// swapped-in checkpoint passes through here, so a hot swap can never silently
// change the precision or the inference path the campaign was configured with.
func prepareModel(m *pmm.Model, opts Options) error {
	m.Freeze()
	if opts.Quant && !m.Quantized() {
		if err := m.Quantize(); err != nil {
			return err
		}
	}
	if opts.Fused && !m.Fused() {
		m.EnableFused()
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
// Quantize/EnableFused when the server's options demand them) before it
// becomes visible. Versions are monotonic: a swap at or below the current
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
	if s.obsOn || s.sloOn {
		now := time.Now()
		for _, at := range batch {
			if at.enq.IsZero() {
				continue
			}
			wait := now.Sub(at.enq).Nanoseconds()
			if s.obsOn {
				s.m.queueWait.Observe(wait)
			}
			at.t.queueWaitNs.Add(wait)
			at.t.queueWaited.Add(1)
			if s.sloOn {
				// Racy read-modify-write is fine: the EWMA is an
				// approximate load signal, not an accounting counter.
				old := s.ewmaWaitNs.Load()
				s.ewmaWaitNs.Store(old + (wait-old)/8)
			}
		}
		if s.obsOn {
			s.m.queueDepth.Set(int64(s.sched.depth()))
			s.m.batchSize.Observe(int64(len(batch)))
		}
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

// effectivePriority resolves a query's class: the tenant default, raised
// (never lowered) by an explicit Query.Priority tag.
func effectivePriority(t *tenant, q Query) Priority {
	p := t.cfg.Priority
	if q.Priority > p && q.Priority < numPriorities {
		p = q.Priority
	}
	return p
}

// accept is admission control: it refuses on a closed server and, for
// service traffic, on a tenant over quota or (background class, SLO
// configured) degraded serving, and otherwise registers the query as in
// flight. Refusals are immediate errors — no Prediction is owed — and none
// count against health: they are load control, not serving failure.
func (s *Server) accept(t *tenant, prio Priority, campaign bool) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.rejected.Add(1)
		s.m.rejected.Inc()
		t.rejected.Add(1)
		return ErrServerClosed
	}
	if !campaign && t.pending.Load() >= int64(t.cfg.Quota) {
		s.mu.Unlock()
		s.quotaRejected.Add(1)
		s.m.tenantQuotaRejected.Inc()
		t.quotaRejected.Add(1)
		return ErrQuotaExceeded
	}
	if !campaign && s.sloOn && prio == PriorityBackground &&
		(time.Duration(s.ewmaWaitNs.Load()) > s.opts.SLOQueueWait || !s.Healthy()) {
		s.mu.Unlock()
		s.shed.Add(1)
		s.m.tenantShed.Inc()
		t.shed.Add(1)
		return ErrShed
	}
	t.pending.Add(1)
	s.queryWG.Add(1)
	s.mu.Unlock()
	s.queries.Add(1)
	s.m.queries.Inc()
	s.m.tenantAdmitted.Inc()
	t.queries.Add(1)
	return nil
}

// InferAsync submits a query and returns a channel delivering exactly one
// prediction (with Err set on terminal failure). The error is non-nil only
// if the query is refused at admission (closed, over quota, or shed).
func (s *Server) InferAsync(q Query) (<-chan Prediction, error) {
	return s.inferAsync(s.def, q, false, 0)
}

// Submit is the campaign submit path: InferAsync without the wall clock,
// because a campaign reads each reply only at its next epoch barrier. It
// refuses only on a closed server (no quota, SLO or health shed), waits
// for queue space instead of failing with ErrQueueFull, arms no deadline,
// never sleeps, records nothing into health, and plans faults by key: the
// same query under the same key gets the same reply on any host.
func (s *Server) Submit(q Query, key uint64) (<-chan Prediction, error) {
	return s.inferAsync(s.def, q, true, key)
}

// Infer submits a query and blocks for the prediction, applying the same
// deadline/retry/fault machinery as InferAsync.
func (s *Server) Infer(q Query) (Prediction, error) {
	return s.infer(s.def, q)
}

// inferAsync submits service traffic (faults planned on the arrival
// sequence, key ignored) or campaign traffic (see Submit).
func (s *Server) inferAsync(t *tenant, q Query, campaign bool, key uint64) (<-chan Prediction, error) {
	prio := effectivePriority(t, q)
	if err := s.accept(t, prio, campaign); err != nil {
		return nil, err
	}
	if !campaign {
		key = s.seq.Add(1) - 1
	}
	reply := make(chan Prediction, 1)
	go func() {
		reply <- s.dispatch(t, q, prio, key, campaign)
	}()
	return reply, nil
}

func (s *Server) infer(t *tenant, q Query) (Prediction, error) {
	prio := effectivePriority(t, q)
	if err := s.accept(t, prio, false); err != nil {
		return Prediction{}, err
	}
	seq := s.seq.Add(1) - 1
	// The blocking path dispatches inline: no goroutine, no reply channel.
	p := s.dispatch(t, q, prio, seq, false)
	if p.Err != nil {
		return Prediction{}, p.Err
	}
	return p, nil
}

// dispatch owns one accepted query end to end: it plans faults by seq,
// enqueues attempts on the scheduler, retries, and returns exactly one
// terminal Prediction. Service traffic also gets the deadline, seeded
// backoff sleeps and health tracking; campaign traffic skips every one.
func (s *Server) dispatch(t *tenant, q Query, prio Priority, seq uint64, campaign bool) Prediction {
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
		// Queue-full is backpressure from the caller, not server
		// ill-health — counting it would let a hot client talk a healthy
		// server into degraded mode. Close-time terminations are likewise
		// not a health signal.
		if !campaign && !errors.Is(p.Err, ErrQueueFull) && !errors.Is(p.Err, ErrServerClosed) {
			s.health.record(p.Err == nil)
		}
		t.pending.Add(-1)
		s.queryWG.Done()
		return p
	}
	lastErr := ErrUnavailable
	for att := 0; att <= s.opts.MaxRetries; att++ {
		if att > 0 {
			s.retries.Add(1)
			s.m.retries.Inc()
			if !campaign && !s.sleep(s.backoff(seq, att)) {
				return finish(Prediction{Err: ErrServerClosed})
			}
		}
		var d faultinject.Decision
		if s.opts.Fault != nil {
			d = s.opts.Fault.Plan(seq, att)
		}
		switch d.Fault {
		case faultinject.FaultTransient:
			s.injTransient.Add(1)
			s.m.injTransient.Inc()
			lastErr = ErrUnavailable
			continue
		case faultinject.FaultDrop:
			// The reply is lost and the deadline expires. The wait
			// itself is not reproduced in wall clock — simulated
			// time lives in the fuzzer's budget, and sleeping here
			// would only slow the host and perturb determinism.
			s.injDropped.Add(1)
			s.m.injDropped.Inc()
			s.timeouts.Add(1)
			s.m.timeouts.Inc()
			lastErr = ErrDeadline
			continue
		case faultinject.FaultLatency:
			s.injLatency.Add(1)
			s.m.injLatency.Inc()
			if !campaign && !s.sleep(d.Latency) {
				return finish(Prediction{Err: ErrServerClosed})
			}
		}
		res, err := s.runAttempt(t, q, prio, campaign)
		if err != nil {
			if errors.Is(err, ErrServerClosed) {
				return finish(Prediction{Err: err})
			}
			if errors.Is(err, ErrDeadline) {
				s.timeouts.Add(1)
				s.m.timeouts.Inc()
			}
			lastErr = err
			continue
		}
		if d.Fault == faultinject.FaultCorrupt {
			s.injCorrupt.Add(1)
			s.m.injCorrupt.Inc()
			res = corruptResult(seq, q, res)
		}
		return finish(Prediction{Slots: res.slots, Probs: res.probs, ModelVersion: res.version})
	}
	return finish(Prediction{Err: lastErr})
}

// runAttempt enqueues one attempt on the scheduler and waits for it. For a
// service attempt the wait has a deadline and a full tenant queue is a
// retryable failure, as in the paper's deployment where an overloaded
// replica sheds load; a campaign attempt waits for room and result alike.
func (s *Server) runAttempt(t *tenant, q Query, prio Priority, campaign bool) (attemptResult, error) {
	a := attemptPool.Get().(*attempt)
	a.q = q
	a.t = t
	a.prio = prio
	if s.obsOn || s.sloOn {
		a.enq = time.Now()
	}
	if err := s.sched.enqueue(a, campaign); err != nil {
		// Never reached a worker: the struct and channel are clean.
		a.reset()
		attemptPool.Put(a)
		return attemptResult{}, err
	}
	var deadline <-chan time.Time // nil for a campaign attempt: never fires
	if !campaign {
		timer := getTimer(s.opts.Deadline)
		defer putTimer(timer) // also safe after the fire below was consumed
		deadline = timer.C
	}
	select {
	case r := <-a.done:
		a.reset()
		attemptPool.Put(a)
		return r, nil
	case <-deadline:
		// The worker may still deliver into a.done; the attempt is
		// abandoned to the GC rather than recycled.
		return attemptResult{}, ErrDeadline
	case <-s.closeCh:
		return attemptResult{}, ErrServerClosed
	}
}

// backoff computes the delay before the att-th attempt of query seq:
// exponential in the attempt number with jitter drawn from a generator
// seeded by (BackoffSeed, seq, att) — never from wall clock — so retry
// schedules are identical across campaign replays.
func (s *Server) backoff(seq uint64, att int) time.Duration {
	base := s.opts.BackoffBase
	d := base << uint(att-1)
	if d > s.opts.BackoffMax || d <= 0 {
		d = s.opts.BackoffMax
	}
	r := rng.New(s.opts.BackoffSeed ^ (seq+1)*0x9e3779b97f4a7c15 ^ uint64(att)*0xd6e8feb86659fd93)
	return d + time.Duration(r.Float64()*float64(base))
}

// sleep waits for d, aborting early (returning false) if the server closes.
func (s *Server) sleep(d time.Duration) bool {
	if d <= 0 {
		select {
		case <-s.closeCh:
			return false
		default:
			return true
		}
	}
	timer := getTimer(d)
	select {
	case <-timer.C:
		timerPool.Put(timer)
		return true
	case <-s.closeCh:
		putTimer(timer)
		return false
	}
}

// corruptResult deterministically scrambles a prediction: slot references
// that may point outside the program and probabilities outside [0, 1].
// Consumers must treat predictions as untrusted input.
func corruptResult(seq uint64, q Query, res attemptResult) attemptResult {
	r := rng.New(seq*0xa0761d6478bd642f + 0xbad)
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

// Healthy reports whether the rolling error rate is below the unhealthy
// threshold (or too few outcomes have been observed to judge).
func (s *Server) Healthy() bool {
	rate, n := s.health.snapshot()
	return n < s.opts.HealthMinSamples || rate < s.opts.UnhealthyAt
}

// ErrorRate returns the failure fraction over the rolling health window.
func (s *Server) ErrorRate() float64 {
	rate, _ := s.health.snapshot()
	return rate
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
	rate, _ := s.health.snapshot()
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
		QuotaRejected:  s.quotaRejected.Load(),
		Shed:           s.shed.Load(),
		Retries:        s.retries.Load(),
		Timeouts:       s.timeouts.Load(),
		Batches:        batches,
		BatchedQueries: s.batchedQueries.Load(),
		AvgBatchSize:   avgBatch,
		BatchFill:      fill,
		Fused:          slot.m.Fused(),
		Quantized:      slot.m.Quantized(),
		ModelVersion:   slot.version,
		Kernel:         slot.m.InferProfile(),
		CacheHits:      cacheHits,
		CacheMisses:    cacheMisses,
		InjDropped:     s.injDropped.Load(),
		InjTransient:   s.injTransient.Load(),
		InjLatency:     s.injLatency.Load(),
		InjCorrupt:     s.injCorrupt.Load(),
		MeanLatency:    mean,
		Throughput:     tput,
		ErrorRate:      rate,
		Healthy:        s.Healthy(),
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
	// wakes the workers to drain out and every Submit waiting for queue
	// space to give up, then wait out every accepted query (all abort
	// promptly on closeCh) and the workers.
	s.sched.close()
	s.queryWG.Wait()
	s.workerWG.Wait()
}

// healthTracker keeps a rolling window of service-query outcomes: the
// signal behind Healthy, ErrorRate and SLO shedding at admission.
type healthTracker struct {
	mu    sync.Mutex
	ring  []bool // true = failure
	n     int    // filled entries
	idx   int
	fails int
}

func newHealthTracker(window int) *healthTracker {
	return &healthTracker{ring: make([]bool, window)}
}

func (h *healthTracker) record(ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == len(h.ring) {
		if h.ring[h.idx] {
			h.fails--
		}
	} else {
		h.n++
	}
	h.ring[h.idx] = !ok
	if !ok {
		h.fails++
	}
	h.idx = (h.idx + 1) % len(h.ring)
}

func (h *healthTracker) snapshot() (rate float64, samples int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0, 0
	}
	return float64(h.fails) / float64(h.n), h.n
}
