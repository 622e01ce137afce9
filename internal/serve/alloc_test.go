// Steady-state allocation budget for the inference hot path. The sync Infer
// path dispatches inline and recycles attempts and their reply channels
// through a pool, so a cache-hit query should allocate only
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

// maxSteadyStateBytesPerOp is the steady-state B/op budget: the measured
// footprint on the reference container (the same on every run) plus 5 %.
// It pins a cached graph with its forward plan stored and the block memo
// warm, 4 336 B/op (9 257 when every hit re-derived its index lists).
// Re-planning per hit, or growing the batch index instead of sizing it,
// breaks it.
const maxSteadyStateBytesPerOp = 4553

func BenchmarkInferSteadyState(b *testing.B) {
	m := pmm.NewModel(rng.New(1), pmm.DefaultConfig(), pmm.BuildVocab(testKernel))
	s := NewServerOpts(m, qgraph.NewBuilder(testKernel, testAn).WithCache(64), Options{Workers: 1})
	defer s.Close()
	q := testQuery(b)
	// Warm the graph cache, the plan and the block memo so the loop
	// measures the steady state.
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

func TestInferSteadyStateAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget measurement in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates the allocation footprint")
	}
	res := testing.Benchmark(BenchmarkInferSteadyState)
	if got := res.AllocedBytesPerOp(); got > maxSteadyStateBytesPerOp {
		t.Errorf("steady-state Infer allocates %d B/op, budget %d (result %s, %s)",
			got, maxSteadyStateBytesPerOp, res.String(), res.MemString())
	}
	t.Logf("steady-state Infer: %s %s (budget %d B/op)", res.String(), res.MemString(), maxSteadyStateBytesPerOp)
}
