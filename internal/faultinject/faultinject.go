// Package faultinject provides deterministic, seeded fault models for the
// PMM inference path. The paper's deployment (§3.4) keeps fuzzing throughput
// intact when inference is slow or unavailable by falling back to random
// argument localization; this package supplies the adversary for exercising
// that story: dropped replies, transient errors, latency spikes, and corrupt
// predictions, all planned as a pure function of (seed, query, attempt) so
// that a faulty campaign is exactly as reproducible as a healthy one.
//
// Fault decisions deliberately do not depend on wall clock or on worker
// scheduling: the serve package assigns every accepted query a sequence
// number at submission time, and the model plans the fate of each attempt of
// that query from the sequence number alone. Two campaigns with the same
// fuzzer seed and the same fault model therefore see the same fault stream
// regardless of how goroutines interleave.
package faultinject

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/repro/snowplow/internal/rng"
)

// Fault classifies one injected failure.
type Fault int

// The fault kinds. Drop, Transient and Corrupt are mutually exclusive per
// attempt (partitioned over one uniform draw); Latency is drawn
// independently for attempts that would otherwise succeed.
const (
	// FaultNone leaves the attempt untouched.
	FaultNone Fault = iota
	// FaultDrop loses the reply: the attempt fails as if its deadline had
	// expired with no answer (serve's ErrDeadline), without the wait.
	FaultDrop
	// FaultTransient fails the attempt immediately with a retryable error
	// (the serving analogue of a connection reset or 503).
	FaultTransient
	// FaultLatency marks the reply as delayed by the model's latency
	// spike. serve counts it and does not sleep: simulated time lives in
	// the fuzzer's budget.
	FaultLatency
	// FaultCorrupt lets the attempt succeed but replaces the prediction
	// with deterministic garbage (out-of-range slots, bogus
	// probabilities). Consumers must validate predictions.
	FaultCorrupt
)

// String names the fault kind.
func (f Fault) String() string {
	switch f {
	case FaultDrop:
		return "drop"
	case FaultTransient:
		return "transient"
	case FaultLatency:
		return "latency"
	case FaultCorrupt:
		return "corrupt"
	}
	return "none"
}

// Decision is the planned fate of one (query, attempt) pair.
type Decision struct {
	Fault Fault
	// Latency is the injected delay (FaultLatency only).
	Latency time.Duration
}

// Injector plans faults for inference attempts. The serve package consults
// the injector once per attempt; implementations must be safe for concurrent
// use and, for reproducible campaigns, should depend only on their own
// configuration and the (query, attempt) pair.
type Injector interface {
	Plan(query uint64, attempt int) Decision
}

// Model is the standard seeded fault model. The zero value injects nothing.
type Model struct {
	// Seed makes the fault stream reproducible. Models with different
	// seeds produce independent streams.
	Seed uint64
	// DropProb is the per-attempt probability of a lost reply.
	DropProb float64
	// TransientProb is the per-attempt probability of a retryable error.
	TransientProb float64
	// CorruptProb is the per-attempt probability of a corrupted
	// prediction.
	CorruptProb float64
	// LatencyProb is the probability that an otherwise-successful attempt
	// is delayed by LatencySpike.
	LatencyProb float64
	// LatencySpike is the injected delay magnitude; the planned delay is
	// uniform in [0.5, 1.5) times this value.
	LatencySpike time.Duration
}

// DefaultLatencySpike is used when LatencyProb is set but LatencySpike is not.
const DefaultLatencySpike = 20 * time.Millisecond

// Enabled reports whether the model can inject any fault at all.
func (m *Model) Enabled() bool {
	return m != nil && (m.DropProb > 0 || m.TransientProb > 0 || m.CorruptProb > 0 || m.LatencyProb > 0)
}

// FailureProb is the total probability that an attempt does not deliver a
// usable prediction (drop + transient; corruption delivers, just wrongly).
func (m *Model) FailureProb() float64 {
	if m == nil {
		return 0
	}
	return clamp01(m.DropProb) + clamp01(m.TransientProb)
}

// Plan returns the deterministic fault decision for the attempt-th try of
// the query-th accepted query. It is a pure function of the model and its
// arguments, so it is safe for concurrent use.
func (m *Model) Plan(query uint64, attempt int) Decision {
	if !m.Enabled() {
		return Decision{}
	}
	r := rng.New(m.Seed ^ (query+1)*0x9e3779b97f4a7c15 ^ (uint64(attempt)+1)*0xbf58476d1ce4e5b9)
	x := r.Float64()
	drop := clamp01(m.DropProb)
	trans := clamp01(m.TransientProb)
	corr := clamp01(m.CorruptProb)
	switch {
	case x < drop:
		return Decision{Fault: FaultDrop}
	case x < drop+trans:
		return Decision{Fault: FaultTransient}
	case x < drop+trans+corr:
		return Decision{Fault: FaultCorrupt}
	}
	if m.LatencyProb > 0 && r.Float64() < m.LatencyProb {
		spike := m.LatencySpike
		if spike <= 0 {
			spike = DefaultLatencySpike
		}
		return Decision{
			Fault:   FaultLatency,
			Latency: time.Duration((0.5 + r.Float64()) * float64(spike)),
		}
	}
	return Decision{}
}

// Scale returns a copy of the model with every probability multiplied by f
// (clamped to [0, 1]); the seed and spike magnitude are preserved. Used by
// the degraded-serving ablation to sweep one fault shape across rates.
func (m *Model) Scale(f float64) *Model {
	out := *m
	out.DropProb = clamp01(m.DropProb * f)
	out.TransientProb = clamp01(m.TransientProb * f)
	out.CorruptProb = clamp01(m.CorruptProb * f)
	out.LatencyProb = clamp01(m.LatencyProb * f)
	return &out
}

// String renders the model in the ParseSpec format.
func (m *Model) String() string {
	if !m.Enabled() {
		return "off"
	}
	var parts []string
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	add("drop", m.DropProb)
	add("transient", m.TransientProb)
	add("corrupt", m.CorruptProb)
	if m.LatencyProb > 0 {
		spike := m.LatencySpike
		if spike <= 0 {
			spike = DefaultLatencySpike
		}
		parts = append(parts, fmt.Sprintf("latency=%g:%s", m.LatencyProb, spike))
	}
	if m.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", m.Seed))
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses a command-line fault specification of the form
//
//	drop=0.1,transient=0.2,corrupt=0.05,latency=0.1:50ms,seed=7
//
// Every field is optional; "off", "none" and "" yield a disabled model.
func ParseSpec(s string) (*Model, error) {
	m := &Model{}
	s = strings.TrimSpace(s)
	if s == "" || s == "off" || s == "none" {
		return m, nil
	}
	for _, field := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: bad field %q (want key=value)", field)
		}
		switch key {
		case "drop", "transient", "corrupt":
			p, err := parseProb(val)
			if err != nil {
				return nil, fmt.Errorf("faultinject: %s: %w", key, err)
			}
			switch key {
			case "drop":
				m.DropProb = p
			case "transient":
				m.TransientProb = p
			case "corrupt":
				m.CorruptProb = p
			}
		case "latency":
			prob, spike, _ := strings.Cut(val, ":")
			p, err := parseProb(prob)
			if err != nil {
				return nil, fmt.Errorf("faultinject: latency: %w", err)
			}
			m.LatencyProb = p
			if spike != "" {
				d, err := time.ParseDuration(spike)
				if err != nil || d < 0 {
					return nil, fmt.Errorf("faultinject: latency spike %q: want a duration", spike)
				}
				m.LatencySpike = d
			}
		case "seed":
			seed, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: seed %q: %w", val, err)
			}
			m.Seed = seed
		default:
			return nil, fmt.Errorf("faultinject: unknown field %q", key)
		}
	}
	if m.FailureProb()+clamp01(m.CorruptProb) > 1 {
		return nil, fmt.Errorf("faultinject: drop+transient+corrupt exceed 1")
	}
	return m, nil
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("bad probability %q", s)
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %v outside [0, 1]", p)
	}
	return p, nil
}

func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
