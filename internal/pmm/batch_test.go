package pmm

import (
	"testing"

	"github.com/repro/snowplow/internal/nn"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
)

// batchGraphs builds a handful of distinct query graphs for batching tests.
func batchGraphs(t testing.TB, n int, seed uint64) []*qgraph.Graph {
	t.Helper()
	ds := smallDataset(t, 4, 60, seed)
	if ds.Len() < n {
		t.Skipf("only %d examples", ds.Len())
	}
	gs := make([]*qgraph.Graph, n)
	for i := 0; i < n; i++ {
		ex := ds.Examples[i]
		gs[i] = testBuilder.Build(ex.Prog, ex.Traces, ex.Targets)
	}
	return gs
}

// TestPredictBatchMatchesPredict is the union-graph determinism test: a
// batched forward must return, for every member graph, exactly the slots
// and bit-identical probabilities of a standalone Predict call.
func TestPredictBatchMatchesPredict(t *testing.T) {
	gs := batchGraphs(t, 6, 1400)
	m := NewModel(rng.New(3), DefaultConfig(), BuildVocab(testKernel))
	m.Freeze()
	batchSlots, batchProbs := m.PredictBatch(gs)
	for i, g := range gs {
		slots, probs := m.Predict(g)
		if len(batchSlots[i]) != len(slots) {
			t.Fatalf("graph %d: batch picked %d slots, single %d", i, len(batchSlots[i]), len(slots))
		}
		for j := range slots {
			if batchSlots[i][j] != slots[j] {
				t.Fatalf("graph %d slot %d: batch %+v vs single %+v", i, j, batchSlots[i][j], slots[j])
			}
		}
		for j := range probs {
			if batchProbs[i][j] != probs[j] {
				t.Fatalf("graph %d prob %d: batch %v vs single %v (not bit-identical)", i, j, batchProbs[i][j], probs[j])
			}
		}
	}
}

// TestPredictFrozenMatchesTrainPath verifies the pooled inference path
// against the autodiff path: freezing the model must not change a single
// bit of any prediction, across repeated passes over warm pool memory.
func TestPredictFrozenMatchesTrainPath(t *testing.T) {
	gs := batchGraphs(t, 3, 400)
	m := NewModel(rng.New(4), DefaultConfig(), BuildVocab(testKernel))
	type result struct {
		probs []float64
	}
	var trained []result
	for _, g := range gs {
		_, probs := m.Predict(g) // params require grad: TrainOps path
		trained = append(trained, result{probs})
	}
	m.Freeze()
	for pass := 0; pass < 2; pass++ {
		for i, g := range gs {
			_, probs := m.Predict(g) // frozen: pooled Infer path
			for j := range probs {
				if probs[j] != trained[i].probs[j] {
					t.Fatalf("pass %d graph %d prob %d: frozen %v vs train %v", pass, i, j, probs[j], trained[i].probs[j])
				}
			}
		}
	}
}

// TestPredictBatchHandlesDegenerateMembers checks nil and argument-less
// graphs inside a batch: they yield nil results without disturbing their
// neighbors.
func TestPredictBatchHandlesDegenerateMembers(t *testing.T) {
	gs := batchGraphs(t, 2, 500)
	m := NewModel(rng.New(5), DefaultConfig(), BuildVocab(testKernel))
	m.Freeze()
	empty := &qgraph.Graph{}
	slots, probs := m.PredictBatch([]*qgraph.Graph{gs[0], nil, empty, gs[1]})
	if slots[1] != nil || slots[2] != nil || probs[1] != nil || probs[2] != nil {
		t.Fatal("degenerate members produced predictions")
	}
	for _, i := range []int{0, 3} {
		g := gs[0]
		if i == 3 {
			g = gs[1]
		}
		wantSlots, wantProbs := m.Predict(g)
		if len(slots[i]) != len(wantSlots) || len(probs[i]) != len(wantProbs) {
			t.Fatalf("member %d disturbed by degenerate neighbors", i)
		}
		for j := range wantProbs {
			if probs[i][j] != wantProbs[j] {
				t.Fatalf("member %d prob %d differs", i, j)
			}
		}
	}
}

// TestPredictBatchWorkerInvariant ties the whole inference stack together:
// batched, pooled, frozen predictions must be bit-identical whatever the
// MatMul worker count.
func TestPredictBatchWorkerInvariant(t *testing.T) {
	defer nn.SetWorkers(1)
	gs := batchGraphs(t, 4, 1500)
	m := NewModel(rng.New(6), DefaultConfig(), BuildVocab(testKernel))
	m.Freeze()
	nn.SetWorkers(1)
	_, want := m.PredictBatch(gs)
	nn.SetWorkers(4)
	_, got := m.PredictBatch(gs)
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("graph %d prob %d: workers=4 %v vs workers=1 %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}
