// Steady-state allocation budget for the inference hot path. The sync Infer
// path dispatches inline and recycles attempts, reply bookkeeping and
// deadline timers through pools, so a cache-hit query should allocate only
// the model's per-query outputs and index lists. The guard test pins the
// budget to the measured footprint: neither serving features nor the forward
// may quietly add per-query allocation.

package serve

import (
	"testing"

	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
)

// maxSteadyStateBytesPerOp is BenchmarkInferSteadyState's B/op on the
// reference container (29 309, the same on every run) plus 5 %. It sits under
// the 31 422 B/op measured before forwardMany sized its edge buckets in one
// allocation, so regrowing them per forward again breaks the budget; the
// pre-tenancy (PR-7) budget it replaces was 32 209.
const maxSteadyStateBytesPerOp = 30774

func benchInferSteadyState(b *testing.B) {
	m := pmm.NewModel(rng.New(1), pmm.DefaultConfig(), pmm.BuildVocab(testKernel))
	s := NewServerOpts(m, qgraph.NewBuilder(testKernel, testAn).WithCache(64), Options{Workers: 1})
	defer s.Close()
	q := testQuery(b)
	// Warm the graph cache so the loop measures the steady state.
	if _, err := s.Infer(q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Infer(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInferSteadyState(b *testing.B) { benchInferSteadyState(b) }

func TestInferSteadyStateAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget measurement in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates the allocation footprint")
	}
	res := testing.Benchmark(benchInferSteadyState)
	if got := res.AllocedBytesPerOp(); got > maxSteadyStateBytesPerOp {
		t.Fatalf("steady-state Infer allocates %d B/op, budget %d (result %s, %s)",
			got, maxSteadyStateBytesPerOp, res.String(), res.MemString())
	}
	t.Logf("steady-state Infer: %s %s (budget %d B/op)", res.String(), res.MemString(), maxSteadyStateBytesPerOp)
}
