package serve

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/repro/snowplow/internal/pmm"
)

// Multi-tenant serving: tenant registration and the public tenant handle.
// One Server hosts many tenants — concurrent fuzzing campaigns, directed
// runners, cluster worker shards — that share the model, the graph-encoding
// cache and the tensor arenas, while the scheduler (sched.go) divides
// inference capacity between them by round-robin.
//
// A tenant's submissions take the server's one admission path: refused only
// by a closed server (ErrServerClosed), and otherwise bounded by the
// tenant's queue ring, on which the submitter waits. A tenant never fills a
// neighbor's ring, so a flooding tenant slows only itself at admission.

// TenantConfig describes one tenant of a shared inference server.
type TenantConfig struct {
	// Name identifies the tenant (stats, logs, flag parsing). Required,
	// unique per server, ≤ 64 printable ASCII bytes without commas.
	Name string
}

// Tenant-spec limits: a name's length, and how many tenants one command line
// may declare.
const (
	MaxTenantName = 64
	maxTenants    = 4096
)

// ErrBadTenantConfig wraps every tenant validation failure, so flag parsing
// and registration can assert typed rejection.
var ErrBadTenantConfig = errors.New("serve: bad tenant config")

// Validate checks that the name is usable.
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
	return nil
}

// ParseTenants builds the command line's tenant configs: n tenants named
// t0..t{n-1}.
func ParseTenants(n int) ([]TenantConfig, error) {
	if n <= 0 || n > maxTenants {
		return nil, fmt.Errorf("%w: tenant count %d out of [1, %d]", ErrBadTenantConfig, n, maxTenants)
	}
	tenants := make([]TenantConfig, n)
	for i := range tenants {
		tenants[i] = TenantConfig{Name: "t" + strconv.Itoa(i)}
	}
	return tenants, nil
}

// TenantStats is one tenant's slice of the serving counters.
type TenantStats struct {
	Name string
	// Queries counts accepted submissions; Succeeded/Failed their terminal
	// outcomes; Served worker-completed attempts.
	Queries   int64
	Succeeded int64
	Failed    int64
	Served    int64
	// Rejected counts closed-server refusals.
	Rejected int64
	// Batches counts forward passes that included at least one of the
	// tenant's queries — its share of the pooled nn arena borrows.
	Batches int64
	// CacheHits/CacheMisses attribute the shared graph-encoding cache's
	// traffic to this tenant's queries.
	CacheHits   int64
	CacheMisses int64
	// MeanQueueWait averages the tenant's attempt wait in the scheduler
	// queue.
	MeanQueueWait time.Duration
}

// tenant is the server-side state. The queue ring is owned by the
// scheduler mutex; counters are atomics read by Stats.
type tenant struct {
	cfg TenantConfig
	srv *Server

	// q is the tenant's bounded FIFO ring (sched.mu).
	q attemptRing

	queries, served          atomic.Int64
	succeeded, failed        atomic.Int64
	rejected, batches        atomic.Int64
	cacheHits, cacheMisses   atomic.Int64
	queueWaitNs, queueWaited atomic.Int64
}

func (t *tenant) stats() TenantStats {
	st := TenantStats{
		Name:        t.cfg.Name,
		Queries:     t.queries.Load(),
		Succeeded:   t.succeeded.Load(),
		Failed:      t.failed.Load(),
		Served:      t.served.Load(),
		Rejected:    t.rejected.Load(),
		Batches:     t.batches.Load(),
		CacheHits:   t.cacheHits.Load(),
		CacheMisses: t.cacheMisses.Load(),
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

// Infer is Server.Infer under this tenant.
func (h *Tenant) Infer(q Query) (Prediction, error) {
	return h.t.srv.infer(h.t, q)
}

// InferAsync is Server.InferAsync under this tenant: keyed by the server's
// arrival counter, shared by all its tenants.
func (h *Tenant) InferAsync(q Query) (<-chan Prediction, error) {
	return h.t.srv.submit(h.t, q, h.t.srv.seq.Add(1)-1)
}

// Submit is Server.Submit under this tenant.
func (h *Tenant) Submit(q Query, key uint64) (<-chan Prediction, error) {
	return h.t.srv.submit(h.t, q, key)
}

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
// multi-tenant server. Fuzzing campaigns submit with their own keys
// (Submit); directed runs and load harnesses let the server key their
// queries by arrival (Infer, InferAsync).
type Inferrer interface {
	Infer(q Query) (Prediction, error)
	InferAsync(q Query) (<-chan Prediction, error)
	Submit(q Query, key uint64) (<-chan Prediction, error)
	Stats() Stats
}

// ModelSwapper is the optional inference surface for online continual
// learning: an Inferrer whose serving model can be hot-swapped to a new
// versioned checkpoint generation without pausing callers. Both *Server and
// *Tenant implement it. A model handle never crosses the cluster wire:
// cluster workers swap their local server when the coordinator pushes
// re-encoded weights.
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
	t, err := s.sched.register(cfg, s, s.opts.QueueSize)
	if err != nil {
		return nil, err
	}
	return &Tenant{t: t}, nil
}

// DefaultTenant returns the implicit tenant that the Server's own Infer,
// InferAsync and Submit route through.
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
