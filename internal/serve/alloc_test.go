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

// Steady-state B/op budgets, one per forward path, each that path's B/op on
// the reference container (the same on every run) plus 5 %:
//
//   - false pins the unfused reference path — what training validation,
//     golden replay and the benchmark's reply check forward through; nothing
//     serves it by default. 29 309 B/op when the budget was set (29 373 since
//     nn.Infer grew two slice headers). It sits under the 31 422 measured
//     before forwardMany sized its edge buckets in one allocation, so
//     regrowing them per forward again breaks the budget; the pre-tenancy
//     (PR-7) budget it replaces was 32 209.
//   - true pins the fused path, which every benchmark workload and the CLI
//     (-fused defaults to true) serve: a cached graph with its forward plan
//     stored and the block memo warm, 4 336 B/op (9 257 when every hit
//     re-derived its index lists). Re-planning per hit, or growing the batch
//     index instead of sizing it, breaks it.
var maxSteadyStateBytesPerOp = map[bool]int64{false: 30774, true: 4553}

func benchInferSteadyState(b *testing.B, fused bool) {
	m := pmm.NewModel(rng.New(1), pmm.DefaultConfig(), pmm.BuildVocab(testKernel))
	s := NewServerOpts(m, qgraph.NewBuilder(testKernel, testAn).WithCache(64), Options{Workers: 1, Fused: fused})
	defer s.Close()
	q := testQuery(b)
	// Warm the graph cache (and, fused, the plan and the block memo) so the
	// loop measures the steady state.
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

func BenchmarkInferSteadyState(b *testing.B) {
	b.Run("unfused", func(b *testing.B) { benchInferSteadyState(b, false) })
	b.Run("fused", func(b *testing.B) { benchInferSteadyState(b, true) })
}

func TestInferSteadyStateAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget measurement in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates the allocation footprint")
	}
	for _, fused := range []bool{false, true} {
		budget := maxSteadyStateBytesPerOp[fused]
		res := testing.Benchmark(func(b *testing.B) { benchInferSteadyState(b, fused) })
		if got := res.AllocedBytesPerOp(); got > budget {
			t.Errorf("steady-state Infer (fused=%t) allocates %d B/op, budget %d (result %s, %s)",
				fused, got, budget, res.String(), res.MemString())
		}
		t.Logf("steady-state Infer (fused=%t): %s %s (budget %d B/op)", fused, res.String(), res.MemString(), budget)
	}
}
