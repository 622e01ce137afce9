package faultinject

import (
	"testing"
	"time"
)

func TestPlanDeterministic(t *testing.T) {
	m := &Model{Seed: 7, DropProb: 0.2, TransientProb: 0.2, CorruptProb: 0.1, LatencyProb: 0.3, LatencySpike: 10 * time.Millisecond}
	for q := uint64(0); q < 200; q++ {
		for att := 0; att < 4; att++ {
			a := m.Plan(q, att)
			b := m.Plan(q, att)
			if a != b {
				t.Fatalf("plan(%d,%d) nondeterministic: %+v vs %+v", q, att, a, b)
			}
		}
	}
}

func TestPlanIndependentOfCallOrder(t *testing.T) {
	m := &Model{Seed: 3, DropProb: 0.5}
	forward := make([]Decision, 100)
	for q := range forward {
		forward[q] = m.Plan(uint64(q), 0)
	}
	for q := len(forward) - 1; q >= 0; q-- {
		if got := m.Plan(uint64(q), 0); got != forward[q] {
			t.Fatalf("plan for query %d depends on call order", q)
		}
	}
}

func TestPlanRates(t *testing.T) {
	m := &Model{Seed: 11, DropProb: 0.2, TransientProb: 0.3, CorruptProb: 0.1}
	const n = 20000
	counts := map[Fault]int{}
	for q := uint64(0); q < n; q++ {
		counts[m.Plan(q, 0).Fault]++
	}
	check := func(f Fault, want float64) {
		got := float64(counts[f]) / n
		if got < want-0.02 || got > want+0.02 {
			t.Errorf("%v rate %.3f, want ~%.2f", f, got, want)
		}
	}
	check(FaultDrop, 0.2)
	check(FaultTransient, 0.3)
	check(FaultCorrupt, 0.1)
	check(FaultNone, 0.4)
}

func TestSeedsIndependent(t *testing.T) {
	a := &Model{Seed: 1, DropProb: 0.5}
	b := &Model{Seed: 2, DropProb: 0.5}
	same := 0
	const n = 1000
	for q := uint64(0); q < n; q++ {
		if a.Plan(q, 0) == b.Plan(q, 0) {
			same++
		}
	}
	// Two independent 50/50 streams agree about half the time.
	if same < n/3 || same > 2*n/3 {
		t.Fatalf("streams for different seeds suspiciously correlated: %d/%d equal", same, n)
	}
}

func TestLatencyDecision(t *testing.T) {
	m := &Model{Seed: 5, LatencyProb: 1, LatencySpike: 10 * time.Millisecond}
	d := m.Plan(0, 0)
	if d.Fault != FaultLatency {
		t.Fatalf("fault = %v, want latency", d.Fault)
	}
	if d.Latency < 5*time.Millisecond || d.Latency >= 15*time.Millisecond {
		t.Fatalf("latency %v outside [0.5, 1.5) x spike", d.Latency)
	}
}

func TestDisabledModel(t *testing.T) {
	var m *Model
	if m.Enabled() {
		t.Fatal("nil model enabled")
	}
	zero := &Model{}
	if zero.Enabled() {
		t.Fatal("zero model enabled")
	}
	if d := zero.Plan(1, 0); d.Fault != FaultNone {
		t.Fatalf("zero model injected %v", d.Fault)
	}
}

func TestScale(t *testing.T) {
	m := &Model{Seed: 9, DropProb: 0.4, TransientProb: 0.3, CorruptProb: 0.2, LatencyProb: 0.1, LatencySpike: time.Second}
	half := m.Scale(0.5)
	if half.DropProb != 0.2 || half.TransientProb != 0.15 || half.CorruptProb != 0.1 || half.LatencyProb != 0.05 {
		t.Fatalf("scale 0.5 wrong: %+v", half)
	}
	if half.Seed != 9 || half.LatencySpike != time.Second {
		t.Fatal("scale must preserve seed and spike")
	}
	over := m.Scale(10)
	if over.DropProb != 1 {
		t.Fatalf("scale must clamp to 1, got %v", over.DropProb)
	}
	if zero := m.Scale(0); zero.Enabled() {
		t.Fatal("scale 0 must disable the model")
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	m, err := ParseSpec("drop=0.1,transient=0.2,corrupt=0.05,latency=0.1:50ms,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if m.DropProb != 0.1 || m.TransientProb != 0.2 || m.CorruptProb != 0.05 ||
		m.LatencyProb != 0.1 || m.LatencySpike != 50*time.Millisecond || m.Seed != 7 {
		t.Fatalf("parsed %+v", m)
	}
	back, err := ParseSpec(m.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", m.String(), err)
	}
	if *back != *m {
		t.Fatalf("round trip: %+v vs %+v", back, m)
	}
}

func TestParseSpecDisabled(t *testing.T) {
	for _, s := range []string{"", "off", "none"} {
		m, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if m.Enabled() {
			t.Fatalf("%q parsed as enabled", s)
		}
	}
	if got := (&Model{}).String(); got != "off" {
		t.Fatalf("disabled model renders %q", got)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, s := range []string{
		"drop",                   // no value
		"drop=x",                 // bad probability
		"drop=1.5",               // out of range
		"latency=0.1:abc",        // bad duration
		"seed=-1",                // bad seed
		"bogus=1",                // unknown key
		"drop=0.6,transient=0.6", // over-full partition
	} {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) succeeded", s)
		}
	}
}
