package pmm

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/repro/snowplow/internal/cfa"
	"github.com/repro/snowplow/internal/dataset"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
)

// memoGraphs is the block-memo test population: graphs of the training
// kernel, one with an all-OOV block and an empty-token block spliced in, and
// one built on kernel 6.9 (new subsystems, so tokens the 6.8 vocabulary has
// never seen) — eight in all, the largest batch the matrix packs.
func memoGraphs(t testing.TB) []*qgraph.Graph {
	t.Helper()
	ds68 := smallDataset(t, 4, 60, 1400)
	if ds68.Len() < 6 {
		t.Fatalf("only %d 6.8 examples: pick another seed, a skip would hide the matrix", ds68.Len())
	}
	gs := make([]*qgraph.Graph, 6)
	for i := range gs {
		ex := ds68.Examples[i]
		gs[i] = testBuilder.Build(ex.Prog, ex.Traces, ex.Targets)
	}

	odd := *gs[0]
	odd.Vertices = append([]qgraph.Vertex(nil), gs[0].Vertices...)
	spliced := 0
	for vi := range odd.Vertices {
		v := &odd.Vertices[vi]
		if v.Kind == qgraph.VSyscall || v.Kind == qgraph.VArg {
			continue
		}
		switch spliced {
		case 0:
			v.Tokens = []string{"tok-from-the-future", "another-one", "tok-from-the-future"}
		case 1:
			v.Tokens = nil
		}
		spliced++
	}
	if spliced < 2 {
		t.Fatalf("graph 0 has %d block vertices, need 2", spliced)
	}
	gs = append(gs, &odd)

	k69 := kernel.MustBuild("6.9")
	an69 := cfa.New(k69)
	r := rng.New(1301)
	gen := prog.NewGenerator(k69.Target)
	bases := make([]*prog.Prog, 32) // enough to reach a 6.9-only subsystem
	for i := range bases {
		bases[i] = gen.Generate(r, 3+r.Intn(3))
	}
	c := dataset.NewCollector(k69, an69)
	c.MutationsPerBase = 30
	ds, _ := c.Collect(rng.New(1302), bases)
	v68 := BuildVocab(testKernel)
	b69 := qgraph.NewBuilder(k69, an69)
	for _, ex := range ds.Examples {
		g := b69.Build(ex.Prog, ex.Traces, ex.Targets)
		for vi := range g.Vertices {
			for _, tok := range g.Vertices[vi].Tokens {
				if v68.ID(tok) == UnkID {
					return append(gs, g)
				}
			}
		}
	}
	t.Fatalf("none of %d 6.9 graphs has a token outside the 6.8 vocabulary: pick another seed", ds.Len())
	return nil
}

// memoCheckpoint returns a saved random model over the 6.8 vocabulary; every
// configuration of a test loads its own copy, so no two share a memo.
func memoCheckpoint(t testing.TB, seed uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := NewModel(rng.New(seed), DefaultConfig(), BuildVocab(testKernel)).Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func loadFrozen(t testing.TB, ckpt []byte, fused bool) *Model {
	t.Helper()
	m, err := Load(bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	m.Freeze()
	if fused {
		m.EnableFused()
	}
	return m
}

// bitDiff returns the first index at which got and want are not the same
// float64 bit pattern (a != cannot tell -0 from +0, and calls NaN unequal to
// itself), or -1 when they are identical; slices of different length differ
// at index 0.
func bitDiff(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			return j
		}
	}
	return -1
}

func sameProbs(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d probs, want %d", what, len(got), len(want))
	}
	if j := bitDiff(got, want); j >= 0 {
		t.Fatalf("%s prob %d: %v vs reference %v (not bit-identical)", what, j, got[j], want[j])
	}
}

// TestFusedBlockMemoBitIdentical is the memo's bit-equality matrix: a fused
// forward over a cold memo and the same forward over the warm memo must both
// equal the unfused, unbatched, memo-free forward in every bit, whatever the
// batch size and whichever other graphs share the batch.
func TestFusedBlockMemoBitIdentical(t *testing.T) {
	gs := memoGraphs(t)
	ckpt := memoCheckpoint(t, 13)
	oracle := loadFrozen(t, ckpt, false)
	want := make([][]float64, len(gs))
	for i, g := range gs {
		_, want[i] = oracle.Predict(g)
	}
	if st := oracle.BlockMemoStats(); st != (BlockMemoStats{}) {
		t.Fatalf("unfused forwards touched the memo: %+v", st)
	}
	r := rng.New(14)
	for _, size := range []int{1, 3, 8} {
		for shuffle := 0; shuffle < 3; shuffle++ {
			order := r.Perm(len(gs))[:size]
			batch := make([]*qgraph.Graph, size)
			for bi, gi := range order {
				batch[bi] = gs[gi]
			}
			m := loadFrozen(t, ckpt, true)
			var cold BlockMemoStats
			for pass, state := range []string{"cold", "warm"} {
				_, got := m.PredictBatch(batch)
				for bi, gi := range order {
					sameProbs(t, fmt.Sprintf("batch=%v %s memo, graph %d", order, state, gi), got[bi], want[gi])
				}
				st := m.BlockMemoStats()
				if pass == 0 {
					cold = st
					if st.Misses == 0 || st.Entries != int(st.Misses) {
						t.Fatalf("cold pass stats %+v: every miss should be stored once", st)
					}
				} else if st.Misses != cold.Misses || st.Entries != cold.Entries || st.Hits != 2*cold.Hits+cold.Misses {
					t.Fatalf("warm pass encoded again: cold %+v, warm %+v", cold, st)
				}
			}
		}
	}
}

// TestQuantizeResetsFusedBlockMemo pins the invalidation rule: Quantize
// rewrites the float64 weights after the memo may already hold rows encoded
// with the old ones, so forward → Quantize → forward must equal a model that
// was quantized before it ever ran.
func TestQuantizeResetsFusedBlockMemo(t *testing.T) {
	gs := memoGraphs(t)
	ckpt := memoCheckpoint(t, 15)

	m := loadFrozen(t, ckpt, true)
	_, before := m.PredictBatch(gs)
	if m.BlockMemoStats().Entries == 0 {
		t.Fatal("fused forward stored nothing")
	}
	if err := m.Quantize(); err != nil {
		t.Fatal(err)
	}
	if st := m.BlockMemoStats(); st != (BlockMemoStats{}) {
		t.Fatalf("Quantize kept the memo: %+v", st)
	}
	_, after := m.PredictBatch(gs)

	fresh := loadFrozen(t, ckpt, false)
	if err := fresh.Quantize(); err != nil {
		t.Fatal(err)
	}
	fresh.EnableFused()
	_, want := fresh.PredictBatch(gs)
	moved := false
	for i := range want {
		sameProbs(t, fmt.Sprintf("graph %d after Quantize", i), after[i], want[i])
		for j := range want[i] {
			moved = moved || before[i][j] != after[i][j]
		}
	}
	if !moved {
		t.Fatal("quantization changed no probability: the test cannot see a stale memo")
	}
	if got, want := m.BlockMemoStats(), fresh.BlockMemoStats(); got != want {
		t.Fatalf("memo after Quantize %+v, fresh quantized model %+v", got, want)
	}
}

// TestFusedBlockMemoConcurrentCold races four forwards on one cold memo
// (run under -race): lookups, duplicate encodes of the same sequence and the
// publishing writes overlap, and every reply must still be the reference.
func TestFusedBlockMemoConcurrentCold(t *testing.T) {
	gs := memoGraphs(t)
	ckpt := memoCheckpoint(t, 16)
	oracle := loadFrozen(t, ckpt, false)
	want := make([][]float64, len(gs))
	for i, g := range gs {
		_, want[i] = oracle.Predict(g)
	}
	m := loadFrozen(t, ckpt, true)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			order := rng.New(uint64(17 + w)).Perm(len(gs))
			batch := make([]*qgraph.Graph, len(gs))
			for bi, gi := range order {
				batch[bi] = gs[gi]
			}
			for pass := 0; pass < 3; pass++ {
				_, got := m.PredictBatch(batch)
				for bi, gi := range order {
					for j := range want[gi] {
						if got[bi][j] != want[gi][j] {
							t.Errorf("worker %d pass %d graph %d prob %d: %v vs %v", w, pass, gi, j, got[bi][j], want[gi][j])
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if st := m.BlockMemoStats(); st.Entries == 0 || st.Hits == 0 {
		t.Fatalf("memo unused under concurrency: %+v", st)
	}
}
