package serve

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/repro/snowplow/internal/faultinject"
	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
)

func newTestServerOpts(t testing.TB, opts Options) *Server {
	t.Helper()
	m := pmm.NewModel(rng.New(1), pmm.DefaultConfig(), pmm.BuildVocab(testKernel))
	return NewServerOpts(m, qgraph.NewBuilder(testKernel, testAn), opts)
}

// thirtyPercentFaults is the stress-test fault model: ~30% of attempts are
// dropped, failed, or corrupted.
func thirtyPercentFaults(seed uint64) *faultinject.Model {
	return &faultinject.Model{Seed: seed, DropProb: 0.1, TransientProb: 0.1, CorruptProb: 0.1}
}

func TestCloseThenInferAsyncReturnsSentinel(t *testing.T) {
	s := newTestServer(t, 1)
	s.Close()
	_, err := s.InferAsync(testQuery(t))
	if !errors.Is(err, ErrServerClosed) {
		t.Fatalf("InferAsync after Close: %v, want ErrServerClosed", err)
	}
	if _, err := s.Infer(testQuery(t)); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Infer after Close: %v, want ErrServerClosed", err)
	}
	if got := s.Stats().Rejected; got != 2 {
		t.Fatalf("rejected = %d, want 2", got)
	}
	s.Close() // double close is safe
}

// TestStressWithFaults hammers one server from many goroutines against a 30%
// fault rate and checks the exactly-once reply contract and that the stats
// add up. Run with -race.
func TestStressWithFaults(t *testing.T) {
	s := newTestServerOpts(t, Options{
		Workers:   4,
		QueueSize: 2, // tiny queue: exercise the queue-full retry path
		Fault:     thirtyPercentFaults(42),
	})
	defer s.Close()
	q := testQuery(t)

	const goroutines = 16
	const perG = 20
	var wg sync.WaitGroup
	var delivered, succeeded, failed atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if g%2 == 0 {
					reply, err := s.InferAsync(q)
					if err != nil {
						t.Errorf("InferAsync: %v", err)
						return
					}
					pred := <-reply
					delivered.Add(1)
					if pred.Err != nil {
						failed.Add(1)
					} else {
						succeeded.Add(1)
					}
				} else {
					pred, err := s.Infer(q)
					delivered.Add(1)
					if err != nil {
						failed.Add(1)
					} else {
						succeeded.Add(1)
						if len(pred.Probs) == 0 {
							t.Error("successful prediction with no probs")
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()

	const total = goroutines * perG
	if delivered.Load() != total {
		t.Fatalf("delivered %d replies, want %d (lost or duplicated replies)", delivered.Load(), total)
	}
	st := s.Stats()
	if st.Queries != total {
		t.Fatalf("queries = %d, want %d", st.Queries, total)
	}
	if st.Succeeded != succeeded.Load() || st.Failed != failed.Load() {
		t.Fatalf("server counted %d/%d ok/failed, clients saw %d/%d",
			st.Succeeded, st.Failed, succeeded.Load(), failed.Load())
	}
	if st.Succeeded+st.Failed != st.Queries {
		t.Fatalf("succeeded %d + failed %d != queries %d", st.Succeeded, st.Failed, st.Queries)
	}
	if st.Rejected != 0 {
		t.Fatalf("rejected %d submissions on an open server", st.Rejected)
	}
	if st.InjDropped+st.InjTransient+st.InjCorrupt == 0 {
		t.Fatal("fault model injected nothing at 30%")
	}
	if st.Succeeded == 0 {
		t.Fatal("nothing succeeded at 30% faults with retries")
	}
}

// TestConcurrentClose races Close against a storm of submissions: every
// accepted query must still deliver exactly one reply, refused submissions
// must return the sentinel, and nothing may panic or double-close.
func TestConcurrentClose(t *testing.T) {
	for round := 0; round < 5; round++ {
		s := newTestServerOpts(t, Options{Workers: 2, Fault: thirtyPercentFaults(7)})
		q := testQuery(t)
		const goroutines = 8
		var wg sync.WaitGroup
		var accepted, refused, delivered atomic.Int64
		start := make(chan struct{})
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 10; i++ {
					reply, err := s.InferAsync(q)
					if err != nil {
						if !errors.Is(err, ErrServerClosed) {
							t.Errorf("submission refused with %v, want ErrServerClosed", err)
						}
						refused.Add(1)
						continue
					}
					accepted.Add(1)
					<-reply
					delivered.Add(1)
				}
			}()
		}
		close(start)
		s.Close() // concurrent with the storm; also closes mid-flight queries
		wg.Wait()
		if delivered.Load() != accepted.Load() {
			t.Fatalf("round %d: %d accepted but %d delivered", round, accepted.Load(), delivered.Load())
		}
		st := s.Stats()
		if st.Succeeded+st.Failed != st.Queries {
			t.Fatalf("round %d: %d+%d != %d queries", round, st.Succeeded, st.Failed, st.Queries)
		}
		if st.Rejected != refused.Load() {
			t.Fatalf("round %d: rejected %d, clients saw %d refusals", round, st.Rejected, refused.Load())
		}
		s.Close() // idempotent
	}
}

func TestRetryRecoversFromTransientFaults(t *testing.T) {
	// 50% transient failures per attempt; with 3 retries a query fails
	// only if four consecutive attempts fail (~6%).
	s := newTestServerOpts(t, Options{
		Workers:    2,
		MaxRetries: 3,
		Fault:      &faultinject.Model{Seed: 17, TransientProb: 0.5},
	})
	defer s.Close()
	q := testQuery(t)
	for i := 0; i < 40; i++ {
		s.Infer(q)
	}
	st := s.Stats()
	if st.Retries == 0 {
		t.Fatal("no retries at 50% transient faults")
	}
	if st.Succeeded <= st.Failed {
		t.Fatalf("retries did not recover: %d ok vs %d failed", st.Succeeded, st.Failed)
	}
	if st.InjTransient == 0 {
		t.Fatal("no transient faults recorded")
	}
}

func TestNoRetriesFailsFast(t *testing.T) {
	s := newTestServerOpts(t, Options{
		Workers:    1,
		MaxRetries: -1, // no retries
		Fault:      &faultinject.Model{Seed: 1, TransientProb: 1},
	})
	defer s.Close()
	if _, err := s.Infer(testQuery(t)); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	st := s.Stats()
	if st.Retries != 0 {
		t.Fatalf("retried %d times with retries disabled", st.Retries)
	}
	if st.Served != 0 {
		t.Fatal("a fully-transient model must never reach the workers")
	}
}

func TestDroppedRepliesCountTimeouts(t *testing.T) {
	s := newTestServerOpts(t, Options{
		Workers: 1,
		Fault:   &faultinject.Model{Seed: 2, DropProb: 1},
	})
	defer s.Close()
	if _, err := s.Infer(testQuery(t)); !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	st := s.Stats()
	if st.Timeouts == 0 || st.InjDropped == 0 {
		t.Fatalf("drop faults not accounted: %+v", st)
	}
}

func TestDeadlineFires(t *testing.T) {
	s := newTestServerOpts(t, Options{
		Workers:    1,
		Deadline:   time.Nanosecond,
		MaxRetries: -1,
	})
	defer s.Close()
	q := testQuery(t)
	sawDeadline := false
	for i := 0; i < 50 && !sawDeadline; i++ {
		if _, err := s.Infer(q); errors.Is(err, ErrDeadline) {
			sawDeadline = true
		}
	}
	if !sawDeadline {
		t.Fatal("1ns deadline never fired over 50 queries")
	}
	if s.Stats().Timeouts == 0 {
		t.Fatal("timeouts not counted")
	}
}

// flakyInjector is an injectable hook whose failure mode can be toggled at
// runtime — the recovery story a static model cannot express.
type flakyInjector struct {
	broken atomic.Bool
}

func (f *flakyInjector) Plan(query uint64, attempt int) faultinject.Decision {
	if f.broken.Load() {
		return faultinject.Decision{Fault: faultinject.FaultTransient}
	}
	return faultinject.Decision{}
}

func TestHealthTracksOutageAndRecovery(t *testing.T) {
	inj := &flakyInjector{}
	s := newTestServerOpts(t, Options{
		Workers:          2,
		MaxRetries:       -1,
		BackoffBase:      time.Microsecond,
		Fault:            inj,
		HealthWindow:     32,
		HealthMinSamples: 8,
	})
	defer s.Close()
	q := testQuery(t)

	if !s.Healthy() {
		t.Fatal("fresh server must report healthy")
	}
	inj.broken.Store(true)
	for i := 0; i < 16; i++ {
		s.Infer(q)
	}
	if s.Healthy() {
		t.Fatalf("server healthy after total outage (error rate %.2f)", s.ErrorRate())
	}
	inj.broken.Store(false)
	for i := 0; i < 32; i++ {
		if _, err := s.Infer(q); err != nil {
			t.Fatalf("healthy query failed: %v", err)
		}
	}
	if !s.Healthy() {
		t.Fatalf("server still unhealthy after recovery (error rate %.2f)", s.ErrorRate())
	}
	st := s.Stats()
	if st.ErrorRate != 0 {
		t.Fatalf("error rate %.2f after a full healthy window", st.ErrorRate)
	}
}

func TestCorruptPredictionsAreDelivered(t *testing.T) {
	s := newTestServerOpts(t, Options{
		Workers: 1,
		Fault:   &faultinject.Model{Seed: 3, CorruptProb: 1},
	})
	defer s.Close()
	pred, err := s.Infer(testQuery(t))
	if err != nil {
		t.Fatalf("corruption must not fail the query: %v", err)
	}
	if len(pred.Slots) == 0 {
		t.Fatal("corrupt prediction has no slots to mistrust")
	}
	if s.Stats().InjCorrupt == 0 {
		t.Fatal("corruption not counted")
	}
}

// TestServingDeterministicUnderFaults replays the same query sequence
// against two identically-configured faulty servers and expects identical
// outcome counters — the serving half of the campaign-determinism story.
func TestServingDeterministicUnderFaults(t *testing.T) {
	run := func() Stats {
		s := newTestServerOpts(t, Options{
			Workers: 2,
			Fault:   &faultinject.Model{Seed: 23, DropProb: 0.15, TransientProb: 0.15, CorruptProb: 0.1},
		})
		defer s.Close()
		q := testQuery(t)
		for i := 0; i < 60; i++ {
			s.Infer(q)
		}
		return s.Stats()
	}
	a, b := run(), run()
	if a.Queries != b.Queries || a.Succeeded != b.Succeeded || a.Failed != b.Failed ||
		a.Retries != b.Retries || a.Timeouts != b.Timeouts ||
		a.InjDropped != b.InjDropped || a.InjTransient != b.InjTransient || a.InjCorrupt != b.InjCorrupt {
		t.Fatalf("faulty serving diverged:\n%+v\n%+v", a, b)
	}
}

// TestSubmitIgnoresWallClock pins the campaign submit path on a server
// whose service path would time out, fill its one-slot queue, over-run a
// quota of one, shed on its SLO and sleep an hour per latency fault:
// Submit accepts every query, delivers every reply, records nothing into
// health, and each query's fate is a function of its key alone, whatever
// order the keys arrive in.
func TestSubmitIgnoresWallClock(t *testing.T) {
	const n = 48
	run := func(reverse bool) []Prediction {
		s := newTestServerOpts(t, Options{
			Workers:      1,
			QueueSize:    1,
			Deadline:     time.Nanosecond,
			SLOQueueWait: time.Nanosecond,
			MaxRetries:   1,
			Fault: &faultinject.Model{
				Seed: 3, DropProb: 0.2, TransientProb: 0.2, CorruptProb: 0.1,
				LatencyProb: 0.5, LatencySpike: time.Hour,
			},
		})
		defer s.Close()
		tn, err := s.Tenant(TenantConfig{Name: "campaign", Quota: 1})
		if err != nil {
			t.Fatal(err)
		}
		q := testQuery(t)
		replies := make([]<-chan Prediction, n)
		for i := 0; i < n; i++ {
			k := i
			if reverse {
				k = n - 1 - i
			}
			if replies[k], err = tn.Submit(q, uint64(1000+k)); err != nil {
				t.Fatalf("Submit key %d: %v", k, err)
			}
		}
		out := make([]Prediction, n)
		for k, r := range replies {
			out[k] = <-r
		}
		st := s.Stats()
		if st.Queries != n || st.QuotaRejected != 0 || st.Shed != 0 || st.ErrorRate != 0 {
			t.Fatalf("campaign traffic met admission or health: %+v", st)
		}
		if st.InjLatency == 0 {
			t.Fatal("no latency fault planned; the no-sleep check is vacuous")
		}
		return out
	}
	fwd, rev := run(false), run(true)
	var failed int
	for k := range fwd {
		a, b := fwd[k], rev[k]
		if !errors.Is(a.Err, b.Err) || !errors.Is(b.Err, a.Err) ||
			!reflect.DeepEqual(a.Slots, b.Slots) || !reflect.DeepEqual(a.Probs, b.Probs) {
			t.Fatalf("key %d: arrival order changed the reply: %v/%v vs %v/%v", k, a.Err, a.Slots, b.Err, b.Slots)
		}
		if a.Err != nil {
			failed++
		}
	}
	if failed == 0 || failed == n {
		t.Fatalf("%d of %d keyed queries failed; want a mix", failed, n)
	}
}
