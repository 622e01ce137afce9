package nn

import (
	"fmt"
	"math"
	"testing"

	"github.com/repro/snowplow/internal/rng"
)

// arenaTestNet is a small network touching every op the PMM forward pass
// uses: attention (MatMul/Transpose/SoftmaxRows/Scale/Add/AddRowVector/
// LayerNorm), gather/scatter message passing, pairwise readout
// (RepeatEachRow/TileRows/Mul/Concat/MaxPerGroup) and an MLP head.
type arenaTestNet struct {
	attn *SelfAttention
	mlp  *MLP
	head *MLP
}

func newArenaTestNet(seed uint64) *arenaTestNet {
	r := rng.New(seed)
	return &arenaTestNet{
		attn: NewSelfAttention(r, 8),
		mlp:  NewMLP(r, 8, 8),
		head: NewMLP(r, 24, 8, 1),
	}
}

// weights returns the Linear weight matrices, the ones a TrainArena reads
// through WeightCopies.
func (n *arenaTestNet) weights() []*Tensor {
	ws := []*Tensor{n.attn.Q.W, n.attn.K.W, n.attn.V.W, n.attn.Out.W}
	for _, l := range n.mlp.Layers {
		ws = append(ws, l.W)
	}
	for _, l := range n.head.Layers {
		ws = append(ws, l.W)
	}
	return ws
}

func (n *arenaTestNet) params() []*Tensor {
	var ps []*Tensor
	for _, l := range []Layer{n.attn, n.mlp, n.head} {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// forward runs the pass through ops and returns the scalar loss.
func (n *arenaTestNet) forward(ops Ops, x *Tensor, targets, weights []float64) *Tensor {
	att := n.attn.ForwardOps(ops, x)
	enc := n.mlp.ForwardOps(ops, att)
	gathered := ops.Gather(enc, []int{0, 1, 2, 3, 2, 1})
	agg := ops.ScatterMean(gathered, []int{0, 0, 1, 1, 2, 2}, 3)
	mean := ops.MeanRows(enc)
	big := ops.RepeatEachRow(agg, 2)
	ctx := ops.TileRows(ops.ConcatRows([]*Tensor{mean, mean}), 3)
	prod := ops.Mul(big, ctx)
	cat := ops.Concat(big, ctx, prod)
	scores := n.head.ForwardOps(ops, cat)
	out := ops.MaxPerGroup(scores, 3, 2)
	switch o := ops.(type) {
	case *TrainArena:
		return o.BCEWithLogits(out, targets, weights)
	default:
		return BCEWithLogits(out, targets, weights)
	}
}

// TestTrainArenaMatchesHeapOps verifies the pooled training path end to
// end: loss and every parameter gradient must be bit-identical to the
// heap autodiff ops, across repeated passes over warm arena memory with an
// Adam step between passes. The heap reference is recomputed at each
// step's weights, so a transposed weight copy that outlives a step fails
// here; the arena fills released slabs with NaN, so does an op that reads
// output memory it did not write.
func TestTrainArenaMatchesHeapOps(t *testing.T) {
	net := newArenaTestNet(11)
	r := rng.New(22)
	x := New(6, 8)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	targets := []float64{1, 0, 1}
	weights := []float64{2, 1, 1}

	opt := NewAdam(net.params(), 0.05)
	wc := NewWeightCopies(net.weights())
	arena := NewTrainArena()
	arena.UseWeights(wc)
	arena.nanOnRelease = true
	for pass := 0; pass < 4; pass++ {
		// Reference pass on the heap at this step's weights.
		heapLoss := net.forward(TrainOps{}, x, targets, weights)
		heapLoss.Backward()
		want := make([][]float64, 0, len(net.params()))
		for _, p := range net.params() {
			want = append(want, append([]float64(nil), p.Grad...))
			p.ZeroGrad()
		}

		loss := net.forward(arena, x, targets, weights)
		loss.Backward()
		if loss.Item() != heapLoss.Item() {
			t.Fatalf("pass %d: arena loss %v != heap loss %v", pass, loss.Item(), heapLoss.Item())
		}
		arena.Close()
		for pi, p := range net.params() {
			for j, g := range p.Grad {
				if g != want[pi][j] {
					t.Fatalf("pass %d: param %d grad[%d] = %v, heap %v (not bit-identical)", pass, pi, j, g, want[pi][j])
				}
			}
		}
		opt.Step()
		wc.Refresh()
		opt.ZeroGrad()
	}
	if st := arena.PoolStats(); st.Reuses == 0 {
		t.Fatalf("warm arena passes reused no pooled slabs: %+v", st)
	}
}

// TestTrainArenaLinearMatchesChain checks the one-node Linear against the
// heap MatMul → AddRowVector chain it replaces, bit for bit — output and
// the gradients of x, w and b — over shapes on and off the zero-padded
// small-k path, with the weight transposed per call and from WeightCopies,
// and with the AVX kernels on and off.
func TestTrainArenaLinearMatchesChain(t *testing.T) {
	r := rng.New(5)
	avxModes := []bool{true}
	if useAVX {
		avxModes = append(avxModes, false)
	}
	fill := func(s []float64) {
		for i := range s {
			s[i] = r.NormFloat64()
		}
	}
	same := func(name string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d] = %v, chain %v", name, i, got[i], want[i])
			}
		}
	}
	for _, m := range []int{0, 1, 2, 7} {
		for _, k := range []int{0, 1, 3, 4, 5, 8, 24, 25, 33} {
			for _, n := range []int{1, 3, 4, 5, 24} {
				x, w, b := New(m, k).RequireGrad(), New(k, n).RequireGrad(), New(1, n).RequireGrad()
				fill(x.Data)
				fill(w.Data)
				fill(b.Data)
				g := make([]float64, m*n)
				fill(g)
				for _, avx := range avxModes {
					prev := SetAVX(avx)
					xw := MatMul(x, w)
					chain := AddRowVector(xw, b)
					copy(chain.Grad, g)
					chain.backward()
					xw.backward()
					want := [][]float64{chain.Data, x.Grad, w.Grad, b.Grad}
					for i, s := range want {
						want[i] = append([]float64(nil), s...)
					}
					for _, copies := range []bool{false, true} {
						name := fmt.Sprintf("m=%d k=%d n=%d avx=%v copies=%v", m, k, n, avx, copies)
						x.ZeroGrad()
						w.ZeroGrad()
						b.ZeroGrad()
						ta := NewTrainArena()
						ta.nanOnRelease = true
						if copies {
							ta.UseWeights(NewWeightCopies([]*Tensor{w}))
						}
						out := ta.Linear(x, w, b)
						copy(out.Grad, g)
						out.backward()
						same(name+" out", out.Data, want[0])
						same(name+" dx", x.Grad, want[1])
						same(name+" dw", w.Grad, want[2])
						same(name+" db", b.Grad, want[3])
						ta.Close()
					}
					x.ZeroGrad()
					w.ZeroGrad()
					b.ZeroGrad()
					SetAVX(prev)
				}
			}
		}
	}
}

// benchPass times one full forward+backward through the given ops.
func benchPass(b *testing.B, mk func() Ops, close func(Ops)) {
	net := newArenaTestNet(11)
	r := rng.New(22)
	x := New(6, 8)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	targets := []float64{1, 0, 1}
	weights := []float64{2, 1, 1}
	ops := mk()
	// Warm the pool before measuring.
	loss := net.forward(ops, x, targets, weights)
	loss.Backward()
	close(ops)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loss := net.forward(ops, x, targets, weights)
		loss.Backward()
		close(ops)
		for _, p := range net.params() {
			p.ZeroGrad()
		}
	}
}

// BenchmarkTrainStepHeap is the baseline: every tape tensor heap-allocated.
func BenchmarkTrainStepHeap(b *testing.B) {
	benchPass(b, func() Ops { return TrainOps{} }, func(Ops) {})
}

// BenchmarkTrainStepArena is the pooled path; -benchmem shows the drop in
// per-step allocations (slab traffic moves to the arena pool).
func BenchmarkTrainStepArena(b *testing.B) {
	arena := NewTrainArena()
	benchPass(b, func() Ops { return arena }, func(o Ops) { o.(*TrainArena).Close() })
}
