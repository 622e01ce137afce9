package serve

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/repro/snowplow/internal/pmm"
)

// Multi-tenant serving: tenant registration, admission control and the
// public tenant handle. One Server hosts many tenants — concurrent fuzzing
// campaigns, directed runners, cluster worker shards — that share the model,
// the graph-encoding cache and the tensor arenas, while the scheduler
// (sched.go) divides inference capacity between them by weighted fairness
// and priority class.
//
// Admission happens at submission time, before a query ever reaches a
// queue: a closed server refuses with ErrServerClosed, a tenant over its
// in-flight quota refuses with ErrQuotaExceeded, and while serving is
// degraded (the PR-1 rolling health tracker) or the observed queue wait is
// over the configured SLO, background-class queries are shed with ErrShed —
// directed-class queries ride through, as the paper's directed campaigns
// are latency-sensitive and background snowplow traffic is not. None of
// these refusals count against server health: they are load control, not
// serving failure.

// Priority classes. Higher values outrank lower ones: the scheduler drains
// the directed band before the background band, and SLO shedding never
// touches directed queries.
type Priority uint8

const (
	// PriorityBackground is the default class: bulk snowplow campaign
	// queries.
	PriorityBackground Priority = iota
	// PriorityDirected is the high class: directed-mode (Snowplow-D)
	// queries, served strictly before background traffic.
	PriorityDirected

	numPriorities = 2
)

// String names the priority class.
func (p Priority) String() string {
	if p == PriorityDirected {
		return "directed"
	}
	return "background"
}

// TenantConfig describes one tenant of a shared inference server. The zero
// value of every field but Name takes a default at registration.
type TenantConfig struct {
	// Name identifies the tenant (stats, logs, flag parsing). Required,
	// unique per server, ≤ 64 printable ASCII bytes without commas.
	Name string
	// Weight is the tenant's deficit-round-robin share: with tenants A
	// (weight 2) and B (weight 1) both saturating, A is served two queries
	// for every one of B's. Default 1, max 1<<20.
	Weight int
	// Quota bounds the tenant's in-flight accepted queries (queued plus
	// being served plus between retries). Submissions beyond it fail
	// immediately with ErrQuotaExceeded. Default 2x the tenant queue size.
	Quota int
	// QueueSize bounds the tenant's pending-attempt queue; a full queue is
	// the retryable ErrQueueFull, exactly as the shared queue was before
	// multi-tenancy. Default: the server's Options.QueueSize.
	QueueSize int
	// Priority is the tenant's default class, raised per query by an
	// explicit Query.Priority tag. Default PriorityBackground.
	Priority Priority
}

// Tenant-spec validation limits.
const (
	MaxTenantName   = 64
	MaxTenantWeight = 1 << 20
	maxTenantQueue  = 1 << 24
)

// ErrBadTenantConfig wraps every tenant validation failure, so flag parsing
// and registration can assert typed rejection.
var ErrBadTenantConfig = errors.New("serve: bad tenant config")

// Validate checks the explicit fields (defaults are applied elsewhere):
// a usable name, weight in [0, MaxTenantWeight], non-negative bounds, and a
// known priority class.
func (c TenantConfig) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("%w: empty name", ErrBadTenantConfig)
	}
	if len(c.Name) > MaxTenantName {
		return fmt.Errorf("%w: name longer than %d bytes", ErrBadTenantConfig, MaxTenantName)
	}
	for i := 0; i < len(c.Name); i++ {
		if b := c.Name[i]; b <= ' ' || b > '~' || b == ',' {
			return fmt.Errorf("%w: name byte %q", ErrBadTenantConfig, b)
		}
	}
	if c.Weight < 0 || c.Weight > MaxTenantWeight {
		return fmt.Errorf("%w: weight %d out of [0, %d]", ErrBadTenantConfig, c.Weight, MaxTenantWeight)
	}
	if c.Quota < 0 {
		return fmt.Errorf("%w: negative quota", ErrBadTenantConfig)
	}
	if c.QueueSize < 0 || c.QueueSize > maxTenantQueue {
		return fmt.Errorf("%w: queue size %d out of [0, %d]", ErrBadTenantConfig, c.QueueSize, maxTenantQueue)
	}
	if c.Priority >= numPriorities {
		return fmt.Errorf("%w: unknown priority %d", ErrBadTenantConfig, c.Priority)
	}
	return nil
}

// withDefaults resolves zero fields against the server options.
func (c TenantConfig) withDefaults(opts Options) TenantConfig {
	if c.Weight == 0 {
		c.Weight = 1
	}
	if c.QueueSize == 0 {
		c.QueueSize = opts.QueueSize
	}
	if c.Quota == 0 {
		c.Quota = 2 * c.QueueSize
	}
	return c
}

// TenantStats is one tenant's slice of the serving counters.
type TenantStats struct {
	Name     string
	Weight   int
	Priority Priority
	// Queries counts accepted submissions; Succeeded/Failed their terminal
	// outcomes; Served worker-completed attempts.
	Queries   int64
	Succeeded int64
	Failed    int64
	Served    int64
	// Rejected counts closed-server refusals, QuotaRejected quota
	// refusals, Shed SLO/health sheds (background class only).
	Rejected      int64
	QuotaRejected int64
	Shed          int64
	// Batches counts forward passes that included at least one of the
	// tenant's queries — its share of the pooled nn arena borrows.
	Batches int64
	// CacheHits/CacheMisses attribute the shared graph-encoding cache's
	// traffic to this tenant's queries.
	CacheHits   int64
	CacheMisses int64
	// MeanQueueWait averages the tenant's attempt wait in the scheduler
	// queue (zero unless metrics or an SLO are enabled).
	MeanQueueWait time.Duration
}

// tenant is the server-side state. Queue rings and the DRR deficit are
// owned by the scheduler mutex; counters are atomics read by Stats.
type tenant struct {
	cfg TenantConfig
	idx int
	srv *Server

	// q holds one bounded FIFO ring per priority band (sched.mu).
	q [numPriorities]attemptRing
	// deficit is the DRR deficit counter per band (sched.mu).
	deficit [numPriorities]int
	// pending counts in-flight accepted queries, for quota admission.
	pending atomic.Int64

	queries, served          atomic.Int64
	succeeded, failed        atomic.Int64
	rejected, quotaRejected  atomic.Int64
	shed, batches            atomic.Int64
	cacheHits, cacheMisses   atomic.Int64
	queueWaitNs, queueWaited atomic.Int64
}

func (t *tenant) stats() TenantStats {
	st := TenantStats{
		Name:          t.cfg.Name,
		Weight:        t.cfg.Weight,
		Priority:      t.cfg.Priority,
		Queries:       t.queries.Load(),
		Succeeded:     t.succeeded.Load(),
		Failed:        t.failed.Load(),
		Served:        t.served.Load(),
		Rejected:      t.rejected.Load(),
		QuotaRejected: t.quotaRejected.Load(),
		Shed:          t.shed.Load(),
		Batches:       t.batches.Load(),
		CacheHits:     t.cacheHits.Load(),
		CacheMisses:   t.cacheMisses.Load(),
	}
	if n := t.queueWaited.Load(); n > 0 {
		st.MeanQueueWait = time.Duration(t.queueWaitNs.Load() / n)
	}
	return st
}

// Tenant is the public handle through which one campaign submits queries.
// It implements Inferrer, so fuzzer.Config.Server and directed.Config.Server
// accept either a whole *Server (its default tenant) or one Tenant of a
// shared server.
type Tenant struct {
	t *tenant
}

// Name returns the tenant's registered name.
func (h *Tenant) Name() string { return h.t.cfg.Name }

// Infer submits a query under this tenant and blocks for the prediction.
func (h *Tenant) Infer(q Query) (Prediction, error) {
	return h.t.srv.infer(h.t, q)
}

// InferAsync submits a query under this tenant and returns a channel
// delivering exactly one prediction.
func (h *Tenant) InferAsync(q Query) (<-chan Prediction, error) {
	return h.t.srv.inferAsync(h.t, q)
}

// Healthy mirrors the server's rolling health signal.
func (h *Tenant) Healthy() bool { return h.t.srv.Healthy() }

// Stats returns the server snapshot with the shared-cache counters replaced
// by this tenant's attributed slice, so a campaign's end-of-run report
// describes its own traffic rather than its neighbors'.
func (h *Tenant) Stats() Stats {
	st := h.t.srv.Stats()
	st.CacheHits = h.t.cacheHits.Load()
	st.CacheMisses = h.t.cacheMisses.Load()
	return st
}

// TenantStats returns this tenant's counter slice.
func (h *Tenant) TenantStats() TenantStats { return h.t.stats() }

// Server returns the shared server backing this tenant.
func (h *Tenant) Server() *Server { return h.t.srv }

// SwapModel hot-swaps the shared server's model (see Server.SwapModel). On
// a multi-tenant server every tenant that applies the same versioned push
// races to the same monotonic version, so exactly one swap wins and the rest
// are no-ops.
func (h *Tenant) SwapModel(m *pmm.Model, version int64) (bool, error) {
	return h.t.srv.SwapModel(m, version)
}

// Model returns the shared server's currently served model.
func (h *Tenant) Model() *pmm.Model { return h.t.srv.Model() }

// ModelVersion returns the shared server's current hot-swap generation.
func (h *Tenant) ModelVersion() int64 { return h.t.srv.ModelVersion() }

// GraphCacheCapacity reports the shared server's graph-cache capacity.
func (h *Tenant) GraphCacheCapacity() int { return h.t.srv.GraphCacheCapacity() }

// Inferrer is the inference surface campaigns program against: a dedicated
// *Server (routing through its default tenant) or one *Tenant of a shared
// multi-tenant server.
type Inferrer interface {
	Infer(q Query) (Prediction, error)
	InferAsync(q Query) (<-chan Prediction, error)
	Healthy() bool
	Stats() Stats
}

// ModelSwapper is the optional inference surface for online continual
// learning: an Inferrer whose serving model can be hot-swapped to a new
// versioned checkpoint generation without pausing callers. Both *Server and
// *Tenant implement it; the TCP Client does not (a model handle cannot cross
// the wire — cluster workers swap their local server when the coordinator
// pushes re-encoded weights).
type ModelSwapper interface {
	Inferrer
	// SwapModel installs a strictly newer generation; it reports false for
	// stale or duplicate versions.
	SwapModel(m *pmm.Model, version int64) (bool, error)
	// Model returns the currently served model.
	Model() *pmm.Model
	// ModelVersion returns the current generation (0 = initial model).
	ModelVersion() int64
}

var (
	_ Inferrer     = (*Server)(nil)
	_ Inferrer     = (*Tenant)(nil)
	_ ModelSwapper = (*Server)(nil)
	_ ModelSwapper = (*Tenant)(nil)
)

// Tenant registers a new tenant on the server. It fails on an invalid
// config, a duplicate name, or a closed server.
func (s *Server) Tenant(cfg TenantConfig) (*Tenant, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(s.opts)
	t, err := s.sched.register(cfg, s)
	if err != nil {
		return nil, err
	}
	s.m.tenantCount.Set(int64(s.sched.numTenants()))
	return &Tenant{t: t}, nil
}

// DefaultTenant returns the implicit tenant that Server.Infer/InferAsync
// route through, preserving the single-campaign API unchanged.
func (s *Server) DefaultTenant() *Tenant { return &Tenant{t: s.def} }

// TenantStats snapshots every registered tenant's counters, in
// registration order (the default tenant first).
func (s *Server) TenantStats() []TenantStats {
	ts := s.sched.snapshotTenants()
	out := make([]TenantStats, len(ts))
	for i, t := range ts {
		out[i] = t.stats()
	}
	return out
}
