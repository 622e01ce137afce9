// Hot-swap atomicity: concurrent inference during repeated SwapModel calls
// must never observe a torn model — every prediction is attributable to
// exactly one checkpoint generation, and its probabilities match what that
// generation computes for the query in isolation. Run under -race this also
// proves the swap path is free of data races with the serving hot path.

package serve

import (
	"math"
	"sync"
	"testing"
	"time"

	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
)

// swapTestModels builds generations 0..n-1, each from a distinct RNG seed
// so their predictions are distinguishable.
func swapTestModels(n int) []*pmm.Model {
	models := make([]*pmm.Model, n)
	for i := range models {
		models[i] = pmm.NewModel(rng.New(uint64(500+i)), pmm.DefaultConfig(), pmm.BuildVocab(testKernel))
	}
	return models
}

// referenceProbs computes each generation's ground-truth answer for the
// query, prepared exactly as the server prepares a swapped model (Freeze).
func referenceProbs(t *testing.T, models []*pmm.Model, q Query) [][]float64 {
	t.Helper()
	b := qgraph.NewBuilder(testKernel, testAn)
	g := b.Build(q.Prog, q.Traces, q.Targets)
	out := make([][]float64, len(models))
	for i, m := range models {
		m.Freeze()
		_, probs := m.PredictBatch([]*qgraph.Graph{g})
		out[i] = probs[0]
	}
	for i := 1; i < len(out); i++ {
		same := true
		for j := range out[i] {
			if out[i][j] != out[0][j] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("generations 0 and %d predict identically; test cannot attribute replies", i)
		}
	}
	return out
}

// TestSwapAtomicityUnderLoad hammers Infer from many goroutines while the
// model is repeatedly hot-swapped. Every reply must carry a version that
// was live at some point, and its probabilities must be bit-identical to
// that version's reference answer — a torn read (old weights, new version,
// or half-swapped state) fails the comparison.
func TestSwapAtomicityUnderLoad(t *testing.T) {
	const generations = 6
	models := swapTestModels(generations)
	q := testQuery(t)
	want := referenceProbs(t, models, q)

	s := NewServerOpts(models[0], qgraph.NewBuilder(testKernel, testAn), Options{
		Workers:   4,
		QueueSize: 256,
	})
	defer s.Close()

	const callers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	seen := map[int64]int{}
	fail := func(format string, args ...interface{}) {
		mu.Lock()
		defer mu.Unlock()
		t.Errorf(format, args...)
	}
	check := func(pred Prediction, err error) {
		if err != nil || pred.Err != nil {
			fail("infer failed during swap: %v / %v", err, pred.Err)
			return
		}
		v := pred.ModelVersion
		if v < 0 || v >= generations {
			fail("prediction from unknown generation %d", v)
			return
		}
		ref := want[v]
		if len(pred.Probs) != len(ref) {
			fail("generation %d: %d probs, want %d", v, len(pred.Probs), len(ref))
			return
		}
		for j := range ref {
			if math.Float64bits(pred.Probs[j]) != math.Float64bits(ref[j]) {
				fail("generation %d: prob[%d] = %v, want %v (torn read?)", v, j, pred.Probs[j], ref[j])
				return
			}
		}
		mu.Lock()
		seen[v]++
		mu.Unlock()
	}
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				check(s.Infer(q))
			}
		}()
	}

	// Swap through every generation while the callers hammer the server.
	for v := 1; v < generations; v++ {
		time.Sleep(5 * time.Millisecond)
		swapped, err := s.SwapModel(models[v], int64(v))
		if err != nil {
			t.Fatalf("swap to v%d: %v", v, err)
		}
		if !swapped {
			t.Fatalf("swap to v%d rejected", v)
		}
		if got := s.ModelVersion(); got != int64(v) {
			t.Fatalf("ModelVersion() = %d after swap to %d", got, v)
		}
	}
	// Stale and duplicate versions must be idempotent no-ops.
	if swapped, err := s.SwapModel(models[1], 1); err != nil || swapped {
		t.Fatalf("stale swap = (%v, %v), want rejected no-op", swapped, err)
	}
	close(stop)
	wg.Wait()

	// The final generation must answer at least once (drained callers), and
	// under normal scheduling several generations get traffic.
	pred, err := s.Infer(q)
	check(pred, err)
	if pred.ModelVersion != generations-1 {
		t.Fatalf("post-swap prediction from v%d, want v%d", pred.ModelVersion, generations-1)
	}
	if len(seen) < 2 {
		t.Logf("only %d generation(s) observed under load (slow host?); attribution still verified", len(seen))
	}
}
