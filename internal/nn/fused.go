package nn

import (
	"fmt"
	"math"
	"time"
)

// Fused inference kernels for the frozen-model hot path. Each fused kernel
// collapses a chain of Ops-interface calls — and their intermediate arena
// tensors, shape checks and memory passes — into one cache-hot pass that
// computes every element with exactly the summation order of the unfused
// chain, so fused and unfused forwards are bit-identical (fused_test.go
// proves it against both the AVX and scalar MatMul mirrors):
//
//   - LinearBias: MatMul → AddRowVector (→ ReLU) in one kernel, with the
//     bias/ReLU epilogue applied per output-row block while it is still in
//     cache, and an optional pre-transposed weight (Linear.FreezeFused)
//     that skips the per-call transpose + scratch-pool round trip.
//   - ScaledDotAttention: Transpose → MatMul → Scale → SoftmaxRows →
//     MatMul in one kernel. The unfused chain transposes k and then
//     matmulForward transposes it *back* internally, so the fused kernel
//     uses k's rows directly as the pre-transposed operand and softens each
//     score row in place (softmaxRow is alias-safe) — two transposes, one
//     m×m intermediate and three arena tensors gone.
//   - AddLayerNorm: residual Add → LayerNorm in one kernel with the row
//     sum, mean and inverse-stddev inlined (no separate sum tensor).
//
// TrainOps and TrainArena do not implement FusedOps, so training and tape
// replay take the unfused chain — except that a TrainArena records a Linear
// as one node with LinearBias's bias epilogue (TrainArena.Linear); layers
// gate on FusionEnabled so a plain Infer (fusion off) also keeps the
// op-by-op path for golden replay.

// FusedOps is implemented by op sets that provide fused inference kernels.
// Layers consult FusionEnabled before taking the fused path; an
// implementation with fusion disabled must still compute correctly when
// called directly (Infer falls back to the unfused chain).
type FusedOps interface {
	Ops
	// FusionEnabled reports whether layers should route through the fused
	// kernels.
	FusionEnabled() bool
	// LinearBias computes x×w + b, clamping with ReLU when relu is set.
	// wt, when non-nil, is w pre-transposed ((out,in) row-major — see
	// Linear.FreezeFused); nil transposes into pool scratch per call.
	LinearBias(x, w *Tensor, wt []float64, b *Tensor, relu bool) *Tensor
	// ScaledDotAttention computes SoftmaxRows(scale·(q×kᵀ))×v for q, k, v
	// of equal shape (m, d).
	ScaledDotAttention(q, k, v *Tensor, scale float64) *Tensor
	// RaggedScaledDotAttention runs ScaledDotAttention independently over
	// row segments of q, k, v: bounds[s]..bounds[s+1] delimit segment s.
	// Bit-identical to per-segment calls; the point is that the caller can
	// batch the q/k/v projections of many variable-length sequences into
	// single large matmuls, which the plain Ops interface cannot express.
	RaggedScaledDotAttention(q, k, v *Tensor, bounds []int, scale float64) *Tensor
	// RaggedMeanRows computes the per-segment row mean: output row s is
	// MeanRows over x's rows bounds[s]..bounds[s+1] (segments must be
	// non-empty).
	RaggedMeanRows(x *Tensor, bounds []int) *Tensor
	// AddLayerNorm computes LayerNorm(x+y) with the learned affine.
	AddLayerNorm(x, y, gamma, beta *Tensor, eps float64) *Tensor
	// ReLUInPlace clamps x in place with the same !(v > 0) → 0 test as
	// ReLU (NaN and -0 clamp to +0).
	ReLUInPlace(x *Tensor)
	// GatherAddInto accumulates table rows into dst in place:
	// dst[i,:] += table[indices[i],:] — element for element the
	// Gather → Add pair, without materializing the gathered rows.
	GatherAddInto(dst, table *Tensor, indices []int)
	// ScatterMeanInto accumulates per-bucket means of src into dst in
	// place: dst[d,:] += mean(src rows with dstIdx d), touching only the
	// rows dstIdx names. A touched row rounds exactly like the
	// ScatterMean → Add pair. An untouched row is left alone, where that
	// pair adds a +0 row to it — which can differ only in the sign of a
	// zero (a -0 stays -0 instead of flushing to +0). Any later add maps the
	// two to equal bits or again to zeros of differing sign, so bit-identity
	// with the unfused chain holds once ReLUInPlace (-0 → +0) has run over
	// dst: the contract is "after the layer's ReLU", not "after each
	// scatter".
	ScatterMeanInto(dst, src *Tensor, dstIdx []int)
	// PairRows writes one row per (a, b) pair of x's rows, a-major:
	// row i·len(bIdx)+j is [x[aIdx[i]], x[bIdx[j]], x[aIdx[i]]·x[bIdx[j]]]
	// — element for element Concat(RepeatEachRow(A), TileRows(B), Mul(..))
	// over A = Gather(x, aIdx), B = Gather(x, bIdx), in one pass and one
	// tensor.
	PairRows(x *Tensor, aIdx, bIdx []int) *Tensor
	// Arena returns the underlying inference arena. Layers recycle through
	// it directly — a variadic call on the concrete *Infer keeps its
	// argument slice on the stack, where the same call through the Ops
	// interface would heap-allocate it every pass.
	Arena() *Infer
}

// ReLUInPlace implements FusedOps: the reluForward clamp, in place.
func (in *Infer) ReLUInPlace(x *Tensor) {
	reluInPlace(x.Data)
}

// GatherAddInto implements FusedOps: dst[i,:] += table[indices[i],:],
// bitwise the gatherForward copy followed by the Add sum.
func (in *Infer) GatherAddInto(dst, table *Tensor, indices []int) {
	cols := checkGatherAdd(dst, table, indices)
	gatherAddForward(dst.Data, table.Data, indices, table.Shape[0], cols)
}

// ScatterMeanInto implements FusedOps. The bucket scratch is borrowed from
// the pool on first use and kept until Close, so the two dozen calls of one
// forward share it.
func (in *Infer) ScatterMeanInto(dst, src *Tensor, dstIdx []int) {
	if len(src.Shape) != 2 || len(dstIdx) != src.Shape[0] {
		panic("nn: ScatterMeanInto shape mismatch")
	}
	cols := src.Shape[1]
	if len(dst.Shape) != 2 || dst.Shape[1] != cols {
		panic("nn: ScatterMeanInto shape mismatch")
	}
	rows := dst.Shape[0]
	if len(in.scatterCounts) < rows || len(in.scatterSums) < rows*cols {
		in.releaseScatterScratch()
		in.scatterSums = in.pool.GetSliceRaw(rows * cols)
		in.scatterCounts = in.pool.GetSlice(rows)
	}
	scatterMeanAddForward(dst.Data, in.scatterSums, in.scatterCounts[:rows], src.Data, dstIdx, cols)
}

func (in *Infer) releaseScatterScratch() {
	if in.scatterCounts != nil {
		in.pool.PutSlice(in.scatterCounts)
		in.pool.PutSlice(in.scatterSums)
		in.scatterCounts, in.scatterSums = nil, nil
	}
}

// scatterMeanAddForward is ScatterMeanInto's kernel. counts must be all zero
// on entry and is all zero again on return; sums needs no initial state — a
// bucket's row is cleared when its first source row arrives. The first loop
// forms the bucket sums in source order from +0, the second folds each
// reached bucket into agg once with the same two roundings per element as
// the unfused pair: orow[j]*inv, then the add.
func scatterMeanAddForward(agg, sums, counts, src []float64, dstIdx []int, cols int) {
	dstRows := len(counts)
	for i, d := range dstIdx {
		if d < 0 || d >= dstRows {
			panic(fmt.Sprintf("nn: ScatterMeanInto destination %d out of range [0,%d)", d, dstRows))
		}
		orow := sums[d*cols : (d+1)*cols]
		if counts[d] == 0 {
			clear(orow)
		}
		counts[d]++
		addInto(orow, src[i*cols:(i+1)*cols])
	}
	for _, d := range dstIdx {
		n := counts[d]
		if n == 0 {
			continue // folded at an earlier occurrence
		}
		counts[d] = 0
		orow := sums[d*cols : (d+1)*cols]
		arow := agg[d*cols : (d+1)*cols]
		if n > 1 {
			mulAddInto(arow, orow, 1/n)
		} else {
			addInto(arow, orow)
		}
	}
}

// PairRows implements FusedOps.
func (in *Infer) PairRows(x *Tensor, aIdx, bIdx []int) *Tensor {
	if len(x.Shape) != 2 {
		panic("nn: PairRows requires a 2D tensor")
	}
	out := in.allocRaw(len(aIdx)*len(bIdx), 3*x.Shape[1])
	pairRowsForward(out.Data, x.Data, aIdx, bIdx, x.Shape[0], x.Shape[1])
	return out
}

// pairRowsForward is PairRows' kernel: per pair two row copies and one
// multiply per element, the multiply mulForward's.
func pairRowsForward(dst, x []float64, aIdx, bIdx []int, rows, cols int) {
	for _, idx := range bIdx {
		if idx < 0 || idx >= rows {
			panic(fmt.Sprintf("nn: PairRows index %d out of range [0,%d)", idx, rows))
		}
	}
	o := 0
	for _, ai := range aIdx {
		if ai < 0 || ai >= rows {
			panic(fmt.Sprintf("nn: PairRows index %d out of range [0,%d)", ai, rows))
		}
		a := x[ai*cols : (ai+1)*cols]
		for _, bi := range bIdx {
			b := x[bi*cols : (bi+1)*cols]
			row := dst[o : o+3*cols]
			o += 3 * cols
			copy(row, a)
			copy(row[cols:], b)
			mulForward(row[2*cols:], a, b)
		}
	}
}

func checkGatherAdd(dst, table *Tensor, indices []int) int {
	if len(table.Shape) != 2 {
		panic("nn: GatherAddInto requires a 2D table")
	}
	cols := table.Shape[1]
	if len(dst.Shape) != 2 || dst.Shape[0] != len(indices) || dst.Shape[1] != cols {
		panic(fmt.Sprintf("nn: GatherAddInto shape mismatch %v += table%v[%d ids]", dst.Shape, table.Shape, len(indices)))
	}
	return cols
}

// FusionEnabled implements FusedOps.
func (in *Infer) FusionEnabled() bool { return in.fused }

// Arena implements FusedOps.
func (in *Infer) Arena() *Infer { return in }

// LinearBias implements FusedOps.
func (in *Infer) LinearBias(x, w *Tensor, wt []float64, b *Tensor, relu bool) *Tensor {
	if !in.fused {
		// Unfused mirror, for callers that bypass the layer gating.
		xw := in.MatMul(x, w)
		out := in.AddRowVector(xw, b)
		in.Recycle(xw)
		if relu {
			act := in.ReLU(out)
			in.Recycle(out)
			out = act
		}
		return out
	}
	m, k, n := checkMatMul(x, w)
	if b.Size() != n {
		panic("nn: LinearBias bias size mismatch")
	}
	out := in.allocRaw(m, n)
	if kernelProfiling.Load() {
		t0 := time.Now()
		linearBiasForward(out.Data, x.Data, w.Data, wt, b.Data, m, k, n, relu)
		in.prof.fusedLinearNs += time.Since(t0).Nanoseconds()
	} else {
		linearBiasForward(out.Data, x.Data, w.Data, wt, b.Data, m, k, n, relu)
	}
	in.prof.fusedLinear++
	return out
}

// ScaledDotAttention implements FusedOps.
func (in *Infer) ScaledDotAttention(q, k, v *Tensor, scale float64) *Tensor {
	checkSameShape("ScaledDotAttention", q, k)
	checkSameShape("ScaledDotAttention", q, v)
	if len(q.Shape) != 2 {
		panic("nn: ScaledDotAttention requires 2D tensors")
	}
	m, d := q.Shape[0], q.Shape[1]
	out := in.allocRaw(m, d)
	if kernelProfiling.Load() {
		t0 := time.Now()
		scaledDotAttentionForward(out.Data, q.Data, k.Data, v.Data, m, d, scale)
		in.prof.attentionNs += time.Since(t0).Nanoseconds()
	} else {
		scaledDotAttentionForward(out.Data, q.Data, k.Data, v.Data, m, d, scale)
	}
	in.prof.fusedAttention++
	return out
}

// RaggedScaledDotAttention implements FusedOps. Segments are fully
// independent — attention never crosses a bounds entry — so the kernel
// parallelizes across segments with each output row written by exactly one
// worker, preserving the determinism contract.
func (in *Infer) RaggedScaledDotAttention(q, k, v *Tensor, bounds []int, scale float64) *Tensor {
	checkSameShape("RaggedScaledDotAttention", q, k)
	checkSameShape("RaggedScaledDotAttention", q, v)
	if len(q.Shape) != 2 {
		panic("nn: RaggedScaledDotAttention requires 2D tensors")
	}
	checkBounds("RaggedScaledDotAttention", bounds, q.Shape[0])
	out := in.allocRaw(q.Shape...)
	if kernelProfiling.Load() {
		t0 := time.Now()
		raggedAttentionForward(out.Data, q.Data, k.Data, v.Data, bounds, q.Shape[1], scale)
		in.prof.attentionNs += time.Since(t0).Nanoseconds()
	} else {
		raggedAttentionForward(out.Data, q.Data, k.Data, v.Data, bounds, q.Shape[1], scale)
	}
	in.prof.fusedAttention++
	return out
}

// RaggedMeanRows implements FusedOps.
func (in *Infer) RaggedMeanRows(x *Tensor, bounds []int) *Tensor {
	if len(x.Shape) != 2 {
		panic("nn: RaggedMeanRows requires a 2D tensor")
	}
	checkBounds("RaggedMeanRows", bounds, x.Shape[0])
	d := x.Shape[1]
	// meanRowsForward accumulates into its destination, so borrow zeroed.
	out := in.alloc(len(bounds)-1, d)
	for s := 0; s+1 < len(bounds); s++ {
		b0, b1 := bounds[s], bounds[s+1]
		if b1 == b0 {
			panic("nn: RaggedMeanRows empty segment")
		}
		meanRowsForward(out.Data[s*d:(s+1)*d], x.Data[b0*d:b1*d], b1-b0, d)
	}
	return out
}

// checkBounds validates a segment-bounds slice over `rows` rows: it must
// start at 0, end at rows and be non-decreasing.
func checkBounds(op string, bounds []int, rows int) {
	if len(bounds) < 1 || bounds[0] != 0 || bounds[len(bounds)-1] != rows {
		panic("nn: " + op + " bounds must span [0, rows]")
	}
	for s := 0; s+1 < len(bounds); s++ {
		if bounds[s] > bounds[s+1] {
			panic("nn: " + op + " bounds must be non-decreasing")
		}
	}
}

// AddLayerNorm implements FusedOps.
func (in *Infer) AddLayerNorm(x, y, gamma, beta *Tensor, eps float64) *Tensor {
	checkSameShape("AddLayerNorm", x, y)
	if len(x.Shape) != 2 || x.Shape[1] != gamma.Shape[1] {
		panic("nn: AddLayerNorm dim mismatch")
	}
	out := in.allocRaw(x.Shape...)
	if kernelProfiling.Load() {
		t0 := time.Now()
		addLayerNormForward(out.Data, x.Data, y.Data, gamma.Data, beta.Data, x.Shape[0], x.Shape[1], eps)
		in.prof.normNs += time.Since(t0).Nanoseconds()
	} else {
		addLayerNormForward(out.Data, x.Data, y.Data, gamma.Data, beta.Data, x.Shape[0], x.Shape[1], eps)
	}
	in.prof.fusedAddNorm++
	return out
}

// linearBiasForward is the fused linear kernel: out = x×w + bias (+ReLU).
// wt, when non-nil, is w already transposed ((n,k) row-major); otherwise w
// is transposed into pool scratch exactly like matmulForward. Shapes on
// matmulForward's zero-padded small-k path take the same padded multiply
// (the cached transpose cannot serve it), then the scalar epilogue — so the
// fused output stays bit-identical to the unfused chain for every shape.
func linearBiasForward(out, x, w, wt, bias []float64, m, k, n int, relu bool) {
	if m == 0 || n == 0 {
		return
	}
	if k > 0 && padKEligible(k, n) {
		matmulForward(out, x, w, m, k, n)
		biasReluRows(out, bias, 0, m, n, relu)
		return
	}
	if wt != nil {
		matmulEpilogue(out, x, wt, m, k, n, bias, relu)
		return
	}
	if k == 0 {
		clear(out[:m*n])
		biasReluRows(out, bias, 0, m, n, relu)
		return
	}
	bt := scratch.GetSliceRaw(k * n)
	transposeForward(bt, w, k, n)
	matmulEpilogue(out, x, bt, m, k, n, bias, relu)
	scratch.PutSlice(bt)
}

// scaledDotAttentionForward computes ctx = SoftmaxRows(scale·(q×kᵀ))×v for
// row-major q, k, v of shape (m, d) into ctx (m, d). k's rows serve
// directly as the pre-transposed right operand (matmulForward would have
// reconstructed exactly this layout from kᵀ), the scale folds into the
// score rows while hot, and the softmax runs in place. Each score row is
// produced, scaled and softened by exactly one worker, preserving the
// MatMul determinism contract.
func scaledDotAttentionForward(ctx, q, k, v []float64, m, d int, scale float64) {
	if m == 0 {
		return
	}
	scores := scratch.GetSliceRaw(m * m)
	if m*d*m >= matmulParallelMin {
		parallelRows(m, 2, func(lo, hi int) {
			attentionScoreRows(scores, q, k, lo, hi, m, d, scale)
		})
	} else {
		attentionScoreRows(scores, q, k, 0, m, m, d, scale)
	}
	matmulForward(ctx, scores, v, m, m, d)
	scratch.PutSlice(scores)
}

// raggedAttentionForward runs the attention kernel independently per row
// segment. The per-segment body is fully serial (parallel jobs are leaves),
// so the kernel fans the *segments* out across the worker pool instead —
// each segment's outputs are written by exactly one worker with arithmetic
// identical to scaledDotAttentionForward's serial path.
func raggedAttentionForward(ctx, q, k, v []float64, bounds []int, d int, scale float64) {
	segs := len(bounds) - 1
	parallelRows(segs, 1, func(lo, hi int) {
		// One scratch pair per chunk, sized for its largest segment, so the
		// per-segment cost is pure kernel work with no pool round trips.
		maxM := 0
		for s := lo; s < hi; s++ {
			if m := bounds[s+1] - bounds[s]; m > maxM {
				maxM = m
			}
		}
		if maxM == 0 {
			return
		}
		maxMp := (maxM + 3) &^ 3
		scores := scratch.GetSliceRaw(maxM * maxMp)
		kp := scratch.GetSliceRaw(maxMp * d)
		vt := scratch.GetSliceRaw(d * maxMp)
		for s := lo; s < hi; s++ {
			b0, b1 := bounds[s], bounds[s+1]
			m := b1 - b0
			if m == 0 {
				continue
			}
			off, end := b0*d, b1*d
			attentionSegment(ctx[off:end], q[off:end], k[off:end], v[off:end], scores, kp, vt, m, d, scale)
		}
		scratch.PutSlice(vt)
		scratch.PutSlice(kp)
		scratch.PutSlice(scores)
	})
}

// attentionSegment is the serial one-segment attention body: score rows
// (scaled, softmaxed in place) then the weighted sum against v, mirroring
// matmulForward's dispatch and arithmetic on the same shapes exactly —
// including the zero-padded small-k path (see matmulBT) — so its outputs
// are bit-identical to the unfused MatMul(probs, v) on the same rows.
// scores, kp and vt are caller scratch with capacity for at least m·mp,
// mp·d and d·mp elements, mp = (m+3)&^3.
func attentionSegment(ctx, q, k, v, scores, kp, vt []float64, m, d int, scale float64) {
	if padKEligible(m, d) {
		// Pad k with zero rows so the score matmul runs every column —
		// including the m%4 edge — through the packed four-column blocks.
		// Each real column's dot is the same d-element FMA sequence the
		// unpadded kernel issues (packed and scalar blocking agree bit for
		// bit), and the padded columns come out exactly +0, never meet the
		// softmax, and leave the score rows — stride mp, zero tail — as
		// precisely the left operand matmulBT would have copied for the
		// weighted sum against v.
		mp := (m + 3) &^ 3
		copy(kp[:m*d], k)
		for p := m * d; p < mp*d; p++ {
			kp[p] = 0
		}
		matmulRows(scores, q, kp, 0, m, d, mp, nil, false)
		for i := 0; i < m; i++ {
			row := scores[i*mp : i*mp+m]
			scaleInPlace(row, scale)
			softmaxRow(row, row)
		}
		for j := 0; j < d; j++ {
			col := vt[j*mp : (j+1)*mp]
			for p := 0; p < m; p++ {
				col[p] = v[p*d+j]
			}
			for p := m; p < mp; p++ {
				col[p] = 0
			}
		}
		matmulRows(ctx, scores, vt, 0, m, mp, d, nil, false)
		return
	}
	attentionScoreRows(scores, q, k, 0, m, m, d, scale)
	transposeForward(vt, v, m, d)
	matmulRows(ctx, scores, vt, 0, m, m, d, nil, false)
}

// attentionScoreRows fills score rows [lo, hi): q×kᵀ, scaled in place, then
// softmaxed in place. A named function so the serial path allocates no
// closure.
func attentionScoreRows(scores, q, k []float64, lo, hi, m, d int, scale float64) {
	matmulRows(scores, q, k, lo, hi, d, m, nil, false)
	for i := lo; i < hi; i++ {
		row := scores[i*m : (i+1)*m]
		scaleInPlace(row, scale)
		softmaxRow(row, row)
	}
}

// addLayerNormForward computes dst = LayerNorm(x+y) row-wise with the
// learned affine, summing into dst and normalizing in place (each output
// element is read once, as v, before it is written). The statistics run
// through the same rowMean/rowVariance kernels as layerNormForward, so the
// fused output is bitwise the unfused Add → LayerNorm chain's.
func addLayerNormForward(dst, x, y, gamma, beta []float64, m, n int, eps float64) {
	for i := 0; i < m; i++ {
		dr := dst[i*n : (i+1)*n]
		add2Into(dr, x[i*n:(i+1)*n], y[i*n:(i+1)*n])
		mean := rowMean(dr)
		invStd := 1 / math.Sqrt(rowVariance(dr, mean)+eps)
		normAffineInPlace(dr, gamma, beta, mean, invStd)
	}
}
