// Package obs is the campaign observability layer: a dependency-free
// registry of typed instruments (atomic counters, gauges, fixed-bucket
// histograms), a bounded ring-buffer journal of structured campaign events,
// a periodic time-series sampler, and an opt-in HTTP endpoint exposing
// /metrics, /journal, /timeseries, expvar and net/http/pprof.
//
// The design constraint is that observability must be free when disabled
// and cheap when enabled. Every instrument method is safe on a nil
// receiver and returns immediately, so instrumented hot paths (the fuzz
// loop, the serving workers) pay a single predictable nil check when no
// registry is attached; with a registry attached, updates are single
// lock-free atomic operations. Readers (the HTTP endpoint, the sampler)
// snapshot instruments without stopping writers.
//
// Nothing in this package participates in campaign determinism: metrics
// and samples are wall-clock observables, like fuzzer.VMStat.QueueWaitNs.
// The journal is the exception — see Journal for its determinism
// guarantee.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. All methods are
// nil-safe no-ops, so call sites need no "is observability on" branches.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value that can move in both directions.
// All methods are nil-safe no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution. Observations land in the first
// bucket whose upper bound is >= the value (the last bucket is an implicit
// +Inf overflow). Updates are lock-free: one atomic add on the bucket, the
// sum and the count. All methods are nil-safe no-ops.
type Histogram struct {
	bounds []int64 // ascending upper bounds; counts has len(bounds)+1
	counts []atomic.Int64
	sum    atomic.Int64
	count  atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// LatencyBucketsNs are the default histogram bounds for nanosecond
// latencies: powers of four from 1µs to ~1s.
func LatencyBucketsNs() []int64 {
	return []int64{1e3, 4e3, 16e3, 64e3, 256e3, 1e6, 4e6, 16e6, 64e6, 256e6, 1e9}
}

// SizeBuckets are the default histogram bounds for small cardinalities
// (batch sizes, queue depths).
func SizeBuckets() []int64 {
	return []int64{1, 2, 4, 8, 16, 32, 64}
}

// Kind names an instrument type in snapshots and rendered output.
type Kind string

// The instrument kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// instrument is one registered metric with its metadata.
type instrument struct {
	name, unit, help string
	kind             Kind
	counter          *Counter
	gauge            *Gauge
	hist             *Histogram
	fn               func() int64 // GaugeFunc
}

// Bucket is one histogram bucket in a snapshot.
type Bucket struct {
	// Le is the bucket's inclusive upper bound; the overflow bucket
	// reports math.MaxInt64.
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// Metric is a point-in-time snapshot of one instrument.
type Metric struct {
	Name string `json:"name"`
	Kind Kind   `json:"kind"`
	Unit string `json:"unit,omitempty"`
	Help string `json:"help,omitempty"`
	// Value is the counter count or gauge level (histograms use Sum,
	// Count, Buckets instead).
	Value   int64    `json:"value,omitempty"`
	Sum     int64    `json:"sum,omitempty"`
	Count   int64    `json:"count,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Registry holds named instruments. Registration is idempotent: asking for
// an existing name of the same kind returns the existing instrument, so
// layers can be instrumented independently without coordinating ownership.
// A nil *Registry is valid and returns nil instruments, which are
// themselves nil-safe — the zero-cost disabled path.
type Registry struct {
	mu   sync.Mutex
	ins  map[string]*instrument
	keys []string // registration order; Snapshot sorts by name
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{ins: map[string]*instrument{}}
}

func (r *Registry) register(name, unit, help string, kind Kind) *instrument {
	if in, ok := r.ins[name]; ok {
		if in.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, in.kind))
		}
		return in
	}
	in := &instrument{name: name, unit: unit, help: help, kind: kind}
	r.ins[name] = in
	r.keys = append(r.keys, name)
	return in
}

// Counter registers (or returns) the named counter.
func (r *Registry) Counter(name, unit, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	in := r.register(name, unit, help, KindCounter)
	if in.counter == nil {
		in.counter = &Counter{}
	}
	return in.counter
}

// Gauge registers (or returns) the named gauge.
func (r *Registry) Gauge(name, unit, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	in := r.register(name, unit, help, KindGauge)
	if in.gauge == nil {
		in.gauge = &Gauge{}
	}
	return in.gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at snapshot
// time — the pull-model bridge for subsystems that already keep their own
// counters (the tensor pool, the graph cache, the corpus). fn must be safe
// for concurrent use; it is called outside the registry lock's hot path
// but may run from any snapshot reader. Re-registering a name replaces
// its function.
func (r *Registry) GaugeFunc(name, unit, help string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	in := r.register(name, unit, help, KindGauge)
	in.fn = fn
}

// Histogram registers (or returns) the named histogram with the given
// ascending bucket upper bounds (a final +Inf overflow bucket is implicit).
func (r *Registry) Histogram(name, unit, help string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	in := r.register(name, unit, help, KindHistogram)
	if in.hist == nil {
		in.hist = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	}
	return in.hist
}

const maxInt64 = int64(^uint64(0) >> 1)

// Snapshot returns every instrument's current value, sorted by name. The
// snapshot is per-instrument atomic (histogram bucket counts may trail the
// total by in-flight observations, never lead it).
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	// Copy each instrument under the lock: GaugeFunc may replace fn while
	// a reader snapshots.
	r.mu.Lock()
	ins := make([]instrument, 0, len(r.keys))
	for _, name := range r.keys {
		ins = append(ins, *r.ins[name])
	}
	r.mu.Unlock()
	sort.Slice(ins, func(i, j int) bool { return ins[i].name < ins[j].name })
	out := make([]Metric, 0, len(ins))
	for _, in := range ins {
		m := Metric{Name: in.name, Kind: in.kind, Unit: in.unit, Help: in.help}
		switch {
		case in.fn != nil:
			m.Value = in.fn()
		case in.counter != nil:
			m.Value = in.counter.Value()
		case in.gauge != nil:
			m.Value = in.gauge.Value()
		case in.hist != nil:
			// Read the total first so count >= sum(buckets) never
			// appears inverted to readers.
			m.Count = in.hist.count.Load()
			m.Sum = in.hist.sum.Load()
			m.Buckets = make([]Bucket, len(in.hist.counts))
			for i := range in.hist.counts {
				le := maxInt64
				if i < len(in.hist.bounds) {
					le = in.hist.bounds[i]
				}
				m.Buckets[i] = Bucket{Le: le, Count: in.hist.counts[i].Load()}
			}
		}
		out = append(out, m)
	}
	return out
}

// WriteText renders the snapshot in a flat, grep-friendly text form:
//
//	name{kind,unit} value
//	name_bucket{le=...} count   (histograms)
func (r *Registry) WriteText(w io.Writer) error {
	for _, m := range r.Snapshot() {
		if m.Help != "" {
			if _, err := fmt.Fprintf(w, "# %s: %s\n", m.Name, m.Help); err != nil {
				return err
			}
		}
		switch m.Kind {
		case KindHistogram:
			for _, b := range m.Buckets {
				le := "+Inf"
				if b.Le != maxInt64 {
					le = fmt.Sprintf("%d", b.Le)
				}
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%s} %d\n", m.Name, le, b.Count); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", m.Name, m.Sum, m.Name, m.Count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s{%s%s} %d\n", m.Name, m.Kind, unitSuffix(m.Unit), m.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

func unitSuffix(unit string) string {
	if unit == "" {
		return ""
	}
	return "," + unit
}

// WriteJSON renders the snapshot as an indented JSON array of Metric.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Values flattens the snapshot into name → value for samplers: counters
// and gauges map directly; a histogram h contributes h_count and h_sum.
func (r *Registry) Values() map[string]int64 {
	snap := r.Snapshot()
	out := make(map[string]int64, len(snap))
	for _, m := range snap {
		if m.Kind == KindHistogram {
			out[m.Name+"_count"] = m.Count
			out[m.Name+"_sum"] = m.Sum
			continue
		}
		out[m.Name] = m.Value
	}
	return out
}
