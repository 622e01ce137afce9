package pmm

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
)

// storedPlan returns the forward plan in g's derived-data slot, or nil.
func storedPlan(g *qgraph.Graph) *forwardPlan {
	p, _ := g.Derived().(*forwardPlan)
	return p
}

// TestFusedPlanBitIdentical forwards a batch that holds two graphs twice
// each — two hits on one cached graph, so one plan feeds two row ranges of the
// union — with the plans cold and then warm, against the TrainOps reference.
// The warm pass must reuse the very plans the cold pass stored.
func TestFusedPlanBitIdentical(t *testing.T) {
	ckpt := memoCheckpoint(t, 21)
	gs := memoGraphs(t) // fresh graphs: no plan yet
	want := referenceProbs(t, loadFrozen(t, ckpt), gs)
	if storedPlan(gs[0]) != nil {
		t.Fatal("the reference forward stored a plan")
	}
	order := []int{0, 1, 0, 7, 6, 7, 2}
	batch := make([]*qgraph.Graph, len(order))
	for bi, gi := range order {
		batch[bi] = gs[gi]
	}
	m := loadFrozen(t, ckpt)
	var cold []*forwardPlan
	for _, state := range []string{"cold", "warm"} {
		_, got := m.PredictBatch(batch)
		for bi, gi := range order {
			sameProbs(t, fmt.Sprintf("%s plans, position %d (graph %d)", state, bi, gi), got[bi], want[gi])
		}
		for bi, g := range batch {
			p := storedPlan(g)
			if p == nil || p.key != m.planKey() {
				t.Fatalf("%s: position %d has no plan of this model", state, bi)
			}
			if state == "cold" {
				cold = append(cold, p)
			} else if p != cold[bi] {
				t.Fatalf("position %d was re-planned on a warm forward", bi)
			}
		}
	}
	// A plan is per graph, not per batch position or batch.
	_, got := m.Predict(gs[7])
	sameProbs(t, "unbatched, warm plan", got, want[7])
	if storedPlan(gs[7]) != cold[3] {
		t.Fatal("an unbatched forward re-planned the graph")
	}
}

// TestFusedPlanRebuiltForAnotherModel pins the plan's key: a graph planned by
// one model and then forwarded by a model that would derive other ids — a
// different vocabulary (the 6.9 graph under the 6.8 and then the 6.9
// vocabulary), or the same *Vocab with other CallBuckets/MaxTopArg/MaxDepth —
// is re-planned, and every model gets its own reference answer, also when
// the first model comes back.
func TestFusedPlanRebuiltForAnotherModel(t *testing.T) {
	gs := memoGraphs(t)
	g := gs[len(gs)-1] // built on 6.9: has tokens outside the 6.8 vocabulary
	v68 := BuildVocab(testKernel)
	small := DefaultConfig()
	small.CallBuckets, small.MaxTopArg, small.MaxDepth = 7, 1, 0
	models := []*Model{
		NewModel(rng.New(31), DefaultConfig(), v68),
		NewModel(rng.New(32), DefaultConfig(), BuildVocab(kernel.MustBuild("6.9"))),
		NewModel(rng.New(33), small, v68),
	}
	want := make([][]float64, len(models))
	for i, m := range models {
		m.Freeze()
		want[i] = referenceProbs(t, m, []*qgraph.Graph{g})[0]
	}
	plans := make([]*forwardPlan, len(models))
	for round := 0; round < 2; round++ {
		for i, m := range models {
			before := storedPlan(g)
			_, got := m.Predict(g)
			sameProbs(t, fmt.Sprintf("round %d model %d", round, i), got, want[i])
			p := storedPlan(g)
			if p == before || p.key != m.planKey() {
				t.Fatalf("round %d model %d forwarded the previous model's plan", round, i)
			}
			plans[i] = p
		}
	}
	// The fixture must be one where a stale plan would have been wrong.
	if bytes.Equal(plans[0].blockKeys, plans[1].blockKeys) {
		t.Fatal("the 6.8 and 6.9 vocabularies resolve the graph's tokens to the same ids")
	}
	for _, s := range []int{secSysCall, secArgTokTop, secArgTokDepth} {
		if slices.Equal(plans[0].sec(s), plans[2].sec(s)) {
			t.Fatalf("section %d is the same under both configurations", s)
		}
	}
}

// TestFusedPlanConcurrentCold has four goroutines forward the same unplanned
// graphs at once (run under -race), as two serve workers hitting one cached
// graph do: each builds or finds a plan, all answers are the reference.
func TestFusedPlanConcurrentCold(t *testing.T) {
	gs := memoGraphs(t)
	ckpt := memoCheckpoint(t, 22)
	want := referenceProbs(t, loadFrozen(t, ckpt), gs)
	m := loadFrozen(t, ckpt)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for pass := 0; pass < 2; pass++ {
				_, got := m.PredictBatch(gs)
				for i := range gs {
					if j := bitDiff(got[i], want[i]); j >= 0 {
						t.Errorf("worker %d pass %d graph %d prob %d not bit-identical to the reference", w, pass, i, j)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for i, g := range gs {
		if p := storedPlan(g); p == nil || p.key != m.planKey() {
			t.Fatalf("graph %d ended without a plan", i)
		}
	}
}

// TestFusedPlanBuildAllocs pins the exact-size rule: a plan is its header,
// one index slab and one key slab, whatever the graph — a cold query builds a
// plan it may never use again, so a builder that grows its lists shows up in
// serve_cold's allocation bound.
func TestFusedPlanBuildAllocs(t *testing.T) {
	m := NewModel(rng.New(41), DefaultConfig(), BuildVocab(testKernel))
	for i, g := range memoGraphs(t) {
		if allocs := testing.AllocsPerRun(20, func() { m.buildPlan(g) }); allocs != 3 {
			t.Fatalf("graph %d: buildPlan makes %.0f allocations, want 3", i, allocs)
		}
		p := m.buildPlan(g)
		if len(p.blockKeys) != cap(p.blockKeys) {
			t.Fatalf("graph %d: key slab sized %d for %d bytes", i, cap(p.blockKeys), len(p.blockKeys))
		}
	}
}
