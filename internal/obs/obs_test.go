package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	// Everything the hot paths call must be a no-op on nil — this is the
	// disabled-observability contract.
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(42)

	var r *Registry
	if r.Counter("x", "", "") != nil || r.Gauge("y", "", "") != nil ||
		r.Histogram("z", "", "", SizeBuckets()) != nil {
		t.Fatal("nil registry returned a live instrument")
	}
	r.GaugeFunc("f", "", "", func() int64 { return 1 })
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot non-nil")
	}

	var j *Journal
	j.Record(Event{Kind: EventSeed})
	if j.Len() != 0 || j.Dropped() != 0 || j.Events() != nil {
		t.Fatal("nil journal retained something")
	}
	var sb strings.Builder
	if err := j.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryIdempotentAndKindMismatch(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup", "x", "first")
	b := r.Counter("dup", "x", "second registration ignored")
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("shared counter not shared")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("dup", "x", "wrong kind")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "ns", "", []int64{10, 100})
	for _, v := range []int64{1, 10, 11, 100, 101, 1_000_000} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot: %d metrics", len(snap))
	}
	m := snap[0]
	if m.Count != 6 || m.Sum != 1+10+11+100+101+1_000_000 {
		t.Fatalf("count=%d sum=%d", m.Count, m.Sum)
	}
	want := []int64{2, 2, 2} // <=10, <=100, +Inf
	for i, b := range m.Buckets {
		if b.Count != want[i] {
			t.Fatalf("bucket %d: got %d want %d", i, b.Count, want[i])
		}
	}
	if m.Buckets[2].Le != maxInt64 {
		t.Fatal("overflow bucket bound")
	}
}

func TestSnapshotSortedAndGaugeFunc(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz", "", "").Add(7)
	r.Gauge("mmm", "", "").Set(-2)
	r.GaugeFunc("aaa", "things", "pull gauge", func() int64 { return 42 })
	snap := r.Snapshot()
	names := make([]string, len(snap))
	for i, m := range snap {
		names[i] = m.Name
	}
	if fmt.Sprint(names) != "[aaa mmm zzz]" {
		t.Fatalf("snapshot order: %v", names)
	}
	if snap[0].Value != 42 || snap[1].Value != -2 || snap[2].Value != 7 {
		t.Fatalf("snapshot values: %+v", snap)
	}
}

// TestGaugeFuncReplacedDuringSnapshot re-registers a pull gauge, as each
// campaign sharing a registry does for corpus_*, while a reader snapshots;
// under -race it fails if Snapshot reads the function outside the lock.
func TestGaugeFuncReplacedDuringSnapshot(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("g", "", "", func() int64 { return 0 })
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(1); i <= 500; i++ {
			v := i
			r.GaugeFunc("g", "", "", func() int64 { return v })
		}
	}()
	for last := int64(0); last < 500; {
		v := r.Values()["g"]
		if v < last {
			t.Fatalf("gauge function went back from %d to %d", last, v)
		}
		last = v
	}
	<-done
}

func TestWriteTextGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("execs_total", "execs", "programs executed").Add(3)
	r.Gauge("queue_depth", "", "").Set(2)
	r.Histogram("wait_ns", "ns", "", []int64{10}).Observe(5)

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := "# execs_total: programs executed\n" +
		"execs_total{counter,execs} 3\n" +
		"queue_depth{gauge} 2\n" +
		"wait_ns_bucket{le=10} 1\n" +
		"wait_ns_bucket{le=+Inf} 0\n" +
		"wait_ns_sum 5\n" +
		"wait_ns_count 1\n"
	if sb.String() != want {
		t.Fatalf("WriteText:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestValuesFlattensHistograms(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "", "").Add(2)
	r.Histogram("h", "", "", []int64{10}).Observe(7)
	v := r.Values()
	if v["c"] != 2 || v["h_count"] != 1 || v["h_sum"] != 7 {
		t.Fatalf("Values: %v", v)
	}
	if _, ok := v["h"]; ok {
		t.Fatal("histogram leaked an unsuffixed value")
	}
}

func TestJournalRing(t *testing.T) {
	j := NewJournal(3)
	for i := 0; i < 5; i++ {
		j.Record(Event{Kind: EventNewEdges, Value: int64(i)})
	}
	if j.Len() != 3 || j.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d", j.Len(), j.Dropped())
	}
	evs := j.Events()
	for i, e := range evs {
		if e.Value != int64(i+2) || e.Seq != uint64(i+2) {
			t.Fatalf("event %d: %+v", i, e)
		}
	}
	var sb strings.Builder
	if err := j.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Dropped uint64  `json:"dropped"`
		Events  []Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Dropped != 2 || len(dump.Events) != 3 {
		t.Fatalf("dump: %+v", dump)
	}
}

func TestJournalConcurrentSeq(t *testing.T) {
	j := NewJournal(1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				j.Record(Event{Kind: EventNewEdges})
			}
		}()
	}
	wg.Wait()
	evs := j.Events()
	if len(evs) != 800 {
		t.Fatalf("retained %d", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i) {
			t.Fatalf("seq gap at %d: %d", i, e.Seq)
		}
	}
}

func TestSampler(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ticks", "", "")
	s := NewSampler(r, time.Millisecond)
	s.Start()
	c.Add(5)
	time.Sleep(10 * time.Millisecond)
	samples := s.Stop()
	if len(samples) < 2 {
		t.Fatalf("only %d samples", len(samples))
	}
	last := samples[len(samples)-1]
	if last.Values["ticks"] != 5 {
		t.Fatalf("final sample: %v", last.Values)
	}
	if again := s.Stop(); len(again) != len(samples) {
		t.Fatal("second Stop changed the series")
	}
}
