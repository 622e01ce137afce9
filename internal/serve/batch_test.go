package serve

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/repro/snowplow/internal/nn"
	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
)

// TestBatchedMatchesUnbatched submits the same query through a batching
// server and checks the prediction is bit-identical to a direct model call:
// micro-batching must never change an answer.
func TestBatchedMatchesUnbatched(t *testing.T) {
	m := pmm.NewModel(rng.New(1), pmm.DefaultConfig(), pmm.BuildVocab(testKernel))
	builder := qgraph.NewBuilder(testKernel, testAn)
	s := NewServerOpts(m, builder, Options{Workers: 1, BatchSize: 8})
	defer s.Close()
	q := testQuery(t)
	g := builder.Build(q.Prog, q.Traces, q.Targets)
	wantSlots, wantProbs := m.Predict(g)

	// Many concurrent submissions so the worker actually forms batches.
	var chans []<-chan Prediction
	for i := 0; i < 64; i++ {
		ch, err := s.InferAsync(q)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for i, ch := range chans {
		pred := <-ch
		if pred.Err != nil {
			t.Fatalf("query %d failed: %v", i, pred.Err)
		}
		if len(pred.Slots) != len(wantSlots) {
			t.Fatalf("query %d: %d slots, want %d", i, len(pred.Slots), len(wantSlots))
		}
		for j := range wantSlots {
			if pred.Slots[j] != wantSlots[j] {
				t.Fatalf("query %d slot %d differs", i, j)
			}
		}
		for j := range wantProbs {
			if pred.Probs[j] != wantProbs[j] {
				t.Fatalf("query %d prob %d not bit-identical: %v vs %v", i, j, pred.Probs[j], wantProbs[j])
			}
		}
	}
	st := s.Stats()
	if st.Served != 64 || st.Batches == 0 {
		t.Fatalf("stats: served=%d batches=%d", st.Served, st.Batches)
	}
	if st.Batches > 64 {
		t.Fatalf("more batches than queries: %d", st.Batches)
	}
	if st.AvgBatchSize < 1 {
		t.Fatalf("avg batch size %v", st.AvgBatchSize)
	}
}

// TestBatchedStressWithFaults is the -race stress test for the batched
// dispatch path: multiple workers, micro-batching, a multi-threaded MatMul
// pool, a shared graph cache, and ~30% injected faults, hammered by
// concurrent clients. Every accepted query must still deliver exactly one
// prediction.
func TestBatchedStressWithFaults(t *testing.T) {
	nn.SetWorkers(2)
	defer nn.SetWorkers(1)
	m := pmm.NewModel(rng.New(2), pmm.DefaultConfig(), pmm.BuildVocab(testKernel))
	builder := qgraph.NewBuilder(testKernel, testAn).WithCache(32)
	s := NewServerOpts(m, builder, Options{
		Workers:    2,
		BatchSize:  8,
		Deadline:   2 * time.Second,
		MaxRetries: 3,
		Fault:      thirtyPercentFaults(99),
	})
	defer s.Close()
	q := testQuery(t)

	const clients, perClient = 8, 20
	var wg sync.WaitGroup
	var mu sync.Mutex
	delivered := 0
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				ch, err := s.InferAsync(q)
				if err != nil {
					t.Error(err)
					return
				}
				pred := <-ch
				mu.Lock()
				delivered++
				mu.Unlock()
				if pred.Err == nil && len(pred.Probs) != q.Prog.NumSlots() {
					t.Errorf("prediction with %d probs, want %d", len(pred.Probs), q.Prog.NumSlots())
					return
				}
			}
		}()
	}
	wg.Wait()
	if delivered != clients*perClient {
		t.Fatalf("delivered %d predictions, want %d", delivered, clients*perClient)
	}
	st := s.Stats()
	if st.Queries != clients*perClient {
		t.Fatalf("queries %d, want %d", st.Queries, clients*perClient)
	}
	if st.Succeeded+st.Failed != st.Queries {
		t.Fatalf("succeeded %d + failed %d != queries %d", st.Succeeded, st.Failed, st.Queries)
	}
	// All clients submit the same query: after the first build, every
	// rebuild must be a cache hit.
	if st.CacheHits == 0 || st.CacheMisses == 0 {
		t.Fatalf("cache counters hits=%d misses=%d", st.CacheHits, st.CacheMisses)
	}
}

// TestBatchSizeOneUnchanged pins the default path: BatchSize 1 (or unset)
// serves every query in its own pass, preserving pre-batching behavior.
func TestBatchSizeOneUnchanged(t *testing.T) {
	s := newTestServer(t, 2)
	defer s.Close()
	q := testQuery(t)
	for i := 0; i < 5; i++ {
		if _, err := s.Infer(q); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Batches != st.Served {
		t.Fatalf("batches %d != served %d with BatchSize=1", st.Batches, st.Served)
	}
	if st.BatchedQueries != 0 {
		t.Fatalf("batched queries %d with BatchSize=1", st.BatchedQueries)
	}
	if st.AvgBatchSize != 1 {
		t.Fatalf("avg batch size %v with BatchSize=1", st.AvgBatchSize)
	}
}

// TestBatchedCloseDeliversAll closes the server while batched queries are
// in flight; each must still resolve to exactly one prediction.
func TestBatchedCloseDeliversAll(t *testing.T) {
	m := pmm.NewModel(rng.New(3), pmm.DefaultConfig(), pmm.BuildVocab(testKernel))
	s := NewServerOpts(m, qgraph.NewBuilder(testKernel, testAn), Options{Workers: 2, BatchSize: 4})
	q := testQuery(t)
	var chans []<-chan Prediction
	for i := 0; i < 32; i++ {
		ch, err := s.InferAsync(q)
		if err != nil {
			break
		}
		chans = append(chans, ch)
	}
	go s.Close()
	for _, ch := range chans {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatal("prediction never delivered across Close")
		}
	}
}

// TestPredictionsIdenticalAcrossPoolConfigs is the determinism contract:
// worker-pool size and batching change only throughput, never a
// prediction's bits.
func TestPredictionsIdenticalAcrossPoolConfigs(t *testing.T) {
	base := testQuery(t)
	queries := []Query{base}
	for n := 1; n < len(base.Targets); n++ {
		q := base
		q.Targets = base.Targets[:n]
		queries = append(queries, q)
	}

	configs := []Options{
		{Workers: 1, QueueSize: 64},
		{Workers: 4, BatchSize: 4, QueueSize: 64},
		{Workers: 8, BatchSize: 2, QueueSize: 64},
	}
	var want []Prediction
	for ci, opts := range configs {
		s := newTestServerOpts(t, opts)
		// Load the server concurrently so batches form and workers contend,
		// then measure the queries of record synchronously.
		var replies []<-chan Prediction
		for i := 0; i < 32; i++ {
			r, err := s.InferAsync(queries[i%len(queries)])
			if err != nil {
				t.Fatalf("config %d warm-up submit: %v", ci, err)
			}
			replies = append(replies, r)
		}
		got := make([]Prediction, len(queries))
		for i, q := range queries {
			p, err := s.Infer(q)
			if err != nil {
				t.Fatalf("config %d query %d: %v", ci, i, err)
			}
			got[i] = p
		}
		for _, r := range replies {
			if p := <-r; p.Err != nil {
				t.Fatalf("config %d warm-up: %v", ci, p.Err)
			}
		}
		s.Close()
		if ci == 0 {
			want = got
			continue
		}
		for i := range got {
			if !reflect.DeepEqual(got[i].Slots, want[i].Slots) || !reflect.DeepEqual(got[i].Probs, want[i].Probs) {
				t.Fatalf("config %d query %d prediction differs from single-worker baseline", ci, i)
			}
		}
	}
}
