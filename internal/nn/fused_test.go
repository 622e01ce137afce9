package nn

import (
	"fmt"
	"math"
	"testing"

	"github.com/repro/snowplow/internal/rng"
)

// frozenLinear builds a Linear with frozen random weights for fused tests.
func frozenLinear(r *rng.Rand, in, out int) *Linear {
	l := NewLinear(r, in, out)
	for i := range l.B.Data {
		l.B.Data[i] = r.NormFloat64()
	}
	l.W.UnrequireGrad()
	l.B.UnrequireGrad()
	return l
}

// sameBits fails unless got and want are the same float64 bit patterns,
// element for element. Every "bit-exact" check in this package goes through
// it: a != on float64 cannot tell -0 from +0 and calls NaN unequal to itself.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s differs at %d: %b (%#x) vs %b (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestFusedLinearBiasBitExact checks the fused linear(+bias+ReLU) kernel —
// with and without the pre-transposed weight cache — against the unfused
// MatMul→AddRowVector(→ReLU) chain, bit for bit, across shapes on both
// sides of the parallel threshold.
func TestFusedLinearBiasBitExact(t *testing.T) {
	defer SetWorkers(1)
	r := rng.New(41)
	shapes := [][2]int{{3, 7}, {24, 24}, {64, 64}, {33, 65}, {128, 48}}
	for _, s := range shapes {
		in, out := s[0], s[1]
		l := frozenLinear(r, in, out)
		for _, m := range []int{1, 5, 64, 129} {
			x := benchTensor(r, m, in)
			for _, relu := range []bool{false, true} {
				for _, workers := range []int{1, 4} {
					SetWorkers(workers)
					pool := NewPool()
					un := NewInfer(pool)
					want := un.LinearBias(x, l.W, nil, l.B, relu) // unfused mirror path

					fu := NewInferFused(pool)
					got := fu.LinearBias(x, l.W, nil, l.B, relu)
					what := fmt.Sprintf("shape (%d,%d,%d) relu=%t workers=%d", m, in, out, relu, workers)
					sameBits(t, what+": fused", got.Data, want.Data)

					l.FreezeFused()
					gotWT := fu.LinearBias(x, l.W, l.wt, l.B, relu)
					sameBits(t, what+": pre-transposed fused", gotWT.Data, want.Data)
					un.Close()
					fu.Close()
				}
			}
		}
	}
}

// TestFusedReLUEdgeCases pins the epilogue's handling of the values where a
// naive `< 0` clamp would diverge from reluForward: -0.0 must clamp to +0,
// NaN must clamp to 0, and +0 must stay 0.
func TestFusedReLUEdgeCases(t *testing.T) {
	// One input row against an identity-ish weight that reproduces tricky
	// values in the pre-activation: bias drives outputs to -0.0 and 0.
	w := New(2, 2)
	w.Data = []float64{1, 0, 0, 1}
	b := New(1, 2)
	b.Data = []float64{0, -0.0}
	x := New(1, 2)
	x.Data = []float64{-0.0, 0}

	pool := NewPool()
	un := NewInfer(pool)
	fu := NewInferFused(pool)
	want := un.LinearBias(x, w, nil, b, true)
	got := fu.LinearBias(x, w, nil, b, true)
	sameBits(t, "relu edge case", got.Data, want.Data)
	for i, v := range got.Data {
		if math.Float64bits(v) != 0 {
			t.Fatalf("relu edge case %d: %b (%#x), want +0", i, v, math.Float64bits(v))
		}
	}
}

// TestFusedAttentionBitExact checks the fused attention kernel against the
// unfused Transpose→MatMul→Scale→Softmax→MatMul chain through the full
// SelfAttention layer, across sequence lengths on both sides of the
// parallel threshold and across worker counts.
func TestFusedAttentionBitExact(t *testing.T) {
	defer SetWorkers(1)
	r := rng.New(43)
	for _, dim := range []int{8, 24} {
		sa := NewSelfAttention(r, dim)
		for _, p := range sa.Params() {
			p.UnrequireGrad()
		}
		for _, m := range []int{1, 3, 16, 80, 160} {
			x := benchTensor(r, m, dim)
			pool := NewPool()
			un := NewInfer(pool)
			want := sa.ForwardOps(un, x)
			for _, workers := range []int{1, 2, 4} {
				SetWorkers(workers)
				fu := NewInferFused(pool)
				got := sa.ForwardOps(fu, x)
				sameBits(t, fmt.Sprintf("dim=%d m=%d workers=%d: fused attention", dim, m, workers), got.Data, want.Data)
				fu.Close()
			}
			un.Close()
		}
	}
}

// TestFusedAddLayerNormBitExact checks the fused residual-add+norm kernel
// against the unfused Add→LayerNorm chain.
func TestFusedAddLayerNormBitExact(t *testing.T) {
	r := rng.New(47)
	for _, s := range [][2]int{{1, 8}, {17, 24}, {64, 32}} {
		m, n := s[0], s[1]
		ln := NewLayerNorm(n)
		for i := range ln.Gamma.Data {
			ln.Gamma.Data[i] = 1 + r.NormFloat64()*0.1
			ln.Beta.Data[i] = r.NormFloat64() * 0.1
		}
		ln.Gamma.UnrequireGrad()
		ln.Beta.UnrequireGrad()
		x := benchTensor(r, m, n)
		y := benchTensor(r, m, n)
		pool := NewPool()
		un := NewInfer(pool)
		fu := NewInferFused(pool)
		want := ln.ForwardAddOps(un, x, y)
		got := ln.ForwardAddOps(fu, x, y)
		sameBits(t, fmt.Sprintf("(%d,%d): fused add+norm", m, n), got.Data, want.Data)
		un.Close()
		fu.Close()
	}
}

// TestFusedMLPBitExact checks the fused linear+ReLU stack against the
// unfused chain and the training path.
func TestFusedMLPBitExact(t *testing.T) {
	r := rng.New(53)
	mlp := NewMLP(r, 16, 48, 48, 3)
	for _, p := range mlp.Params() {
		p.UnrequireGrad()
	}
	x := benchTensor(r, 20, 16)
	want := mlp.Forward(x)

	pool := NewPool()
	for pass := 0; pass < 3; pass++ {
		fu := NewInferFused(pool)
		got := mlp.ForwardOps(fu, x)
		sameBits(t, fmt.Sprintf("pass %d: fused MLP", pass), got.Data, want.Data)
		fu.Close()
	}
}

// TestFusedSteadyStateZeroAlloc is the arena-leak test: once the pool and
// the tensor-header free list are warm, a fused forward pass through
// attention + MLP must perform zero heap allocations.
func TestFusedSteadyStateZeroAlloc(t *testing.T) {
	SetWorkers(1)
	r := rng.New(59)
	sa := NewSelfAttention(r, 16)
	mlp := NewMLP(r, 16, 32, 1)
	for _, p := range append(sa.Params(), mlp.Params()...) {
		p.UnrequireGrad()
	}
	for _, l := range []*Linear{sa.Q, sa.K, sa.V, sa.Out} {
		l.FreezeFused()
	}
	for _, l := range mlp.Layers {
		l.FreezeFused()
	}
	x := benchTensor(r, 12, 16)
	pool := NewPool()
	in := NewInferFused(pool)
	pass := func() {
		h := sa.ForwardOps(in, x)
		out := mlp.ForwardOps(in, h)
		in.Recycle(h, out)
		in.Close()
	}
	// Warm the slab classes and header free list.
	for i := 0; i < 5; i++ {
		pass()
	}
	if allocs := testing.AllocsPerRun(100, pass); allocs != 0 {
		t.Fatalf("steady-state fused forward allocates %.1f objects per pass, want 0", allocs)
	}
}

// rowSlice copies rows [lo, hi) of a 2D tensor into a fresh tensor.
func rowSlice(x *Tensor, lo, hi int) *Tensor {
	n := x.Shape[1]
	out := New(hi-lo, n)
	copy(out.Data, x.Data[lo*n:hi*n])
	return out
}

// TestFusedRaggedBitIdentity checks the batched ragged kernels against the
// per-segment unfused chain: ForwardRaggedOps must equal running ForwardOps
// on every segment separately, and RaggedMeanRows must equal per-segment
// MeanRows. The segment lengths cover the zero-padded small-k matmul path
// (odd lengths), the AVX pair loop (even), and a length-1 segment.
func TestFusedRaggedBitIdentity(t *testing.T) {
	defer SetWorkers(1)
	r := rng.New(71)
	const dim = 16
	sa := NewSelfAttention(r, dim)
	for _, p := range sa.Params() {
		p.UnrequireGrad()
	}
	for _, l := range []*Linear{sa.Q, sa.K, sa.V, sa.Out} {
		l.FreezeFused()
	}
	segs := []int{5, 1, 8, 7, 12, 3}
	bounds := []int{0}
	total := 0
	for _, s := range segs {
		total += s
		bounds = append(bounds, total)
	}
	x := benchTensor(r, total, dim)

	for _, workers := range []int{1, 4} {
		SetWorkers(workers)
		pool := NewPool()
		fu := NewInferFused(pool)
		got := sa.ForwardRaggedOps(fu, x, bounds)
		gotMeans := fu.RaggedMeanRows(x, bounds)
		for s := 0; s < len(segs); s++ {
			lo, hi := bounds[s], bounds[s+1]
			seg := rowSlice(x, lo, hi)
			un := NewInfer(pool)
			want := sa.ForwardOps(un, seg) // unfused per-segment reference
			what := fmt.Sprintf("workers=%d segment %d (rows %d..%d)", workers, s, lo, hi)
			sameBits(t, what+": ragged attention", got.Data[lo*dim:hi*dim], want.Data)
			sameBits(t, what+": ragged mean", gotMeans.Data[s*dim:(s+1)*dim], un.MeanRows(seg).Data)
			un.Close()
		}
		fu.Close()
	}
}

// TestGatherAddIntoBitExact checks the one-pass embedding-sum kernel against
// its unfused mirror (Gather then Add), including repeated indices.
func TestGatherAddIntoBitExact(t *testing.T) {
	r := rng.New(73)
	table := benchTensor(r, 9, 12)
	table.UnrequireGrad()
	idx := []int{0, 8, 3, 3, 5, 0, 7}
	pool := NewPool()
	in := NewInfer(pool)
	dst := benchTensor(r, len(idx), 12)
	want := in.Add(dst, in.Gather(table, idx))

	got := benchTensor(r, len(idx), 12)
	copy(got.Data, dst.Data)
	in.GatherAddInto(got, table, idx)
	sameBits(t, "GatherAddInto", got.Data, want.Data)
	in.Close()
}

// TestScatterMeanIntoBitExact pins the sparse aggregation where its contract
// lives: a message-passing layer's worth of ScatterMeanInto calls on one agg,
// then ReLUInPlace, against the unfused ScatterMean → Add chain and ReLU — in
// bits, so signs of zero count. agg carries a -0 in a row no bucket reaches
// (the unfused chain flushes it to +0 on the first add of a zero row, the
// sparse kernel leaves it for the ReLU) and a row of -0 that a bucket reaches
// with a mean that is itself -0 (the add keeps the sign; the unfused chain
// has flushed the row by then, so the two differ until the ReLU).
// The second shape reuses the Infer with more rows, so the kept scratch
// regrows, and its counts must have come back zeroed from every call before.
func TestScatterMeanIntoBitExact(t *testing.T) {
	r := rng.New(79)
	pool := NewPool()
	in := NewInfer(pool)
	defer in.Close()
	const cols = 8
	for _, rows := range []int{7, 40} {
		const untouched, negMean = 3, 5
		buckets := [][]int{
			{0, 4, 4, 2, 0, 6, 6, 6, 2, 0, 4},
			{negMean, 1, negMean, 1},
			{6},
			{2, 2, 0},
		}
		srcs := make([]*Tensor, len(buckets))
		for b, idx := range buckets {
			srcs[b] = benchTensor(r, len(idx), cols)
		}
		// Half of the smallest subnormal rounds to zero and keeps its sign.
		for j := 0; j < cols; j++ {
			srcs[1].Data[0*cols+j] = -math.SmallestNonzeroFloat64
			srcs[1].Data[2*cols+j] = 0
		}
		agg := benchTensor(r, rows, cols)
		agg.Data[untouched*cols+2] = negZero()
		for j := 0; j < cols; j++ {
			agg.Data[negMean*cols+j] = negZero()
		}

		want := agg
		for b, idx := range buckets {
			want = in.Add(want, in.ScatterMean(srcs[b], idx, rows))
		}
		got := New(rows, cols)
		copy(got.Data, agg.Data)
		for b, idx := range buckets {
			in.ScatterMeanInto(got, srcs[b], idx)
		}

		// The test must be able to see what it pins: before the ReLU the two
		// chains differ, but only in signs of zero — the untouched -0, and the
		// -0 row the unfused chain flushed at a bucket that did not reach it.
		if !math.Signbit(got.Data[untouched*cols+2]) || math.Signbit(want.Data[untouched*cols+2]) {
			t.Fatalf("rows=%d: untouched -0 is %b sparse, %b unfused; want -0 and +0",
				rows, got.Data[untouched*cols+2], want.Data[untouched*cols+2])
		}
		if !math.Signbit(got.Data[negMean*cols]) {
			t.Fatalf("rows=%d: -0 plus a -0 mean gave %b, want -0", rows, got.Data[negMean*cols])
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("rows=%d: before ReLU element %d is %b vs %b: more than a sign of zero apart",
					rows, i, got.Data[i], want.Data[i])
			}
		}

		in.ReLUInPlace(got)
		sameBits(t, fmt.Sprintf("rows=%d: ScatterMeanInto then ReLU", rows), got.Data, in.ReLU(want).Data)
	}
}

// TestFusedPairRowsBitExact checks the one-pass pair readout input against
// the Gather → RepeatEachRow/TileRows → Mul → Concat chain it replaces,
// including repeated indices, a -0 product and a NaN.
func TestFusedPairRowsBitExact(t *testing.T) {
	r := rng.New(83)
	x := benchTensor(r, 9, 12)
	x.Data[2*12+1] = negZero()
	x.Data[7*12+3] = math.NaN()
	pool := NewPool()
	in := NewInfer(pool)
	defer in.Close()
	for _, c := range []struct{ a, b []int }{
		{[]int{2, 0, 8, 2}, []int{7, 1, 7}},
		{[]int{5}, []int{2}},
		{nil, []int{1, 2}},
	} {
		args, tgts := in.Gather(x, c.a), in.Gather(x, c.b)
		bigArg, bigTgt := in.RepeatEachRow(args, len(c.b)), in.TileRows(tgts, len(c.a))
		want := in.Concat(bigArg, bigTgt, in.Mul(bigArg, bigTgt))
		got := in.PairRows(x, c.a, c.b)
		if !sameShape(got, want) {
			t.Fatalf("PairRows(%v, %v) shape %v, want %v", c.a, c.b, got.Shape, want.Shape)
		}
		sameBits(t, fmt.Sprintf("PairRows(%v, %v)", c.a, c.b), got.Data, want.Data)
	}
}

func negZero() float64 { return math.Copysign(0, -1) }

// TestFusedProfileCounters checks that fused kernel invocations are counted
// and flushed to the pool at Close, and that kernel timing activates with
// SetKernelProfiling.
func TestFusedProfileCounters(t *testing.T) {
	r := rng.New(61)
	sa := NewSelfAttention(r, 8)
	for _, p := range sa.Params() {
		p.UnrequireGrad()
	}
	x := benchTensor(r, 6, 8)
	pool := NewPool()

	SetKernelProfiling(true)
	defer SetKernelProfiling(false)
	in := NewInferFused(pool)
	out := sa.ForwardOps(in, x)
	_ = out
	if p := pool.Profile(); p.FusedLinear != 0 {
		t.Fatalf("profile visible before Close: %+v", p)
	}
	in.Close()
	p := pool.Profile()
	// Q, K, V, Out projections = 4 fused linears; 1 attention; 1 add+norm.
	if p.FusedLinear != 4 || p.FusedAttention != 1 || p.FusedAddNorm != 1 {
		t.Fatalf("fused kernel counts = %+v, want 4/1/1", p)
	}
	if p.KernelNs() <= 0 {
		t.Fatalf("kernel timing inactive under SetKernelProfiling: %+v", p)
	}
}

// TestTrainPathUnaffectedByFusion confirms the training ops never take the
// fused path (TrainOps does not implement FusedOps) and autodiff still
// works through the refactored MLP forward.
func TestTrainPathUnaffectedByFusion(t *testing.T) {
	r := rng.New(67)
	mlp := NewMLP(r, 4, 8, 1)
	x := benchTensor(r, 3, 4)
	out := mlp.Forward(x)
	loss := MeanRows(out)
	loss.Backward()
	var nonZero bool
	for _, p := range mlp.Params() {
		for _, g := range p.Grad {
			if g != 0 {
				nonZero = true
			}
		}
	}
	if !nonZero {
		t.Fatal("no gradient flowed through the training path")
	}
}
