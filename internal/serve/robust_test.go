package serve

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

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
		QueueSize: 2, // tiny queue: exercise the wait for queue room
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
	// 50% transient failures per attempt; with maxRetries (2) retries a
	// query fails only if three consecutive attempts fail (1 in 8).
	s := newTestServerOpts(t, Options{
		Workers: 2,
		Fault:   &faultinject.Model{Seed: 17, TransientProb: 0.5},
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

// TestNoRetriesFailsFast pins the retry bound: under a fully transient
// model a query fails after exactly maxRetries extra attempts, with no wait
// between them, and never reaches a worker.
func TestNoRetriesFailsFast(t *testing.T) {
	s := newTestServerOpts(t, Options{
		Workers: 1,
		Fault:   &faultinject.Model{Seed: 1, TransientProb: 1},
	})
	defer s.Close()
	if _, err := s.Infer(testQuery(t)); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	st := s.Stats()
	if st.Retries != maxRetries || st.InjTransient != maxRetries+1 {
		t.Fatalf("retries %d, transient faults %d; want %d and %d",
			st.Retries, st.InjTransient, maxRetries, maxRetries+1)
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

// TestSubmitIgnoresWallClock pins the keyed submit path on a server with a
// one-slot queue and a fault model: Submit accepts every query, and each
// query's fate is a function of its key alone, whatever order the keys
// arrive in.
func TestSubmitIgnoresWallClock(t *testing.T) {
	const n = 48
	run := func(reverse bool) []Prediction {
		s := newTestServerOpts(t, Options{
			Workers:   1,
			QueueSize: 1,
			Fault: &faultinject.Model{
				Seed: 3, DropProb: 0.3, TransientProb: 0.3, CorruptProb: 0.1,
			},
		})
		defer s.Close()
		tn, err := s.Tenant(TenantConfig{Name: "campaign"})
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
		if st.Queries != n || st.Rejected != 0 {
			t.Fatalf("keyed traffic refused: %+v", st)
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

// TestInferAsyncWaitsForQueueRoom floods a one-worker server with a
// one-slot queue from 16 goroutines with 8 queries in flight each: every
// query waits for room instead of failing, none is retried, and every reply
// equals the unloaded one.
func TestInferAsyncWaitsForQueueRoom(t *testing.T) {
	s := newTestServerOpts(t, Options{Workers: 1, QueueSize: 1})
	defer s.Close()
	q := testQuery(t)
	want, err := s.Infer(q)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 16, 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			replies := make([]<-chan Prediction, 0, perG)
			for i := 0; i < perG; i++ {
				r, err := s.InferAsync(q)
				if err != nil {
					t.Errorf("InferAsync: %v", err)
					return
				}
				replies = append(replies, r)
			}
			for _, r := range replies {
				p := <-r
				if p.Err != nil {
					t.Errorf("loaded query failed: %v", p.Err)
					continue
				}
				if !reflect.DeepEqual(p.Slots, want.Slots) || !reflect.DeepEqual(p.Probs, want.Probs) {
					t.Errorf("loaded reply differs from the unloaded one")
				}
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Queries != goroutines*perG+1 || st.Failed != 0 || st.Retries != 0 {
		t.Fatalf("queries %d, failed %d, retries %d; want %d, 0, 0",
			st.Queries, st.Failed, st.Retries, goroutines*perG+1)
	}
}
