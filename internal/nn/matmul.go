package nn

import "math"

// This file is the MatMul forward kernel shared by the training and
// inference paths: a cache-aware blocked multiply over a transposed copy of
// B, vectorized with AVX+FMA where available and parallelized across
// output-row blocks by the package worker pool (parallel.go).
//
// Determinism contract: every output element out[i,j] is the dot product
// a[i,:]·b[:,j] evaluated with a fixed order — four interleaved lanes, each
// accumulated with fused multiply-add (one rounding per step, the IEEE 754
// fusedMultiplyAdd that math.FMA guarantees on every platform), reduced as
// (l0+l1)+(l2+l3), then an ascending FMA tail for the k%4 remainder. The
// assembly kernel (dotRows24avx, VFMADD231PD) and the scalar mirror
// (dotScalar, math.FMA) implement exactly this order, and each element is
// written by exactly one worker, so results are bit-identical regardless of
// CPU features, worker count, or how rows are partitioned.

// matmulParallelMin is the minimum multiply-add count before matmulForward
// fans out to the worker pool; below it the dispatch overhead dominates.
const matmulParallelMin = 16 * 1024

// padMatmulMaxK bounds the inner dimension below which matmulForward takes
// the zero-padded AVX path instead of the scalar-tail path. Small odd k —
// the attention weighted sums, whose k is a ragged segment length —
// otherwise spend most of their time in the scalar tail loops.
const padMatmulMaxK = 32

// matmulForward computes out = a×b for row-major a (m×k), b (k×n) into the
// zeroed out (m×n). It is the only MatMul forward implementation; MatMul,
// Infer.MatMul and the benchmarks all funnel through it.
func matmulForward(out, a, b []float64, m, k, n int) {
	matmulForwardBT(out, a, b, nil, nil, m, k, n)
}

// matmulForwardBT is matmulForward building its transposed copy of B in the
// caller's bt (len n·btStride(k, n)) instead of borrowed scratch, so the
// MatMul backward can read it (matmulGradA). bt is filled whenever m, k and
// n are all nonzero; nil borrows scratch as matmulForward does. ap is
// matmulBT's padded copy of a, likewise.
func matmulForwardBT(out, a, b, bt, ap []float64, m, k, n int) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		clear(out[:m*n])
		return
	}
	borrowed := bt == nil
	if borrowed {
		bt = scratch.GetSliceRaw(n * btStride(k, n))
	}
	transposeB(bt, b, k, n)
	matmulBT(out, a, bt, ap, m, k, n, nil)
	if borrowed {
		scratch.PutSlice(bt)
	}
}

// btStride is the row stride of the transposed B the forward builds for an
// inner dimension k and output width n: k, or k rounded up to a multiple of
// four on the zero-padded path.
func btStride(k, n int) int {
	if padKEligible(k, n) {
		return (k + 3) &^ 3
	}
	return k
}

// padKEligible reports whether a multiply with the given inner and output
// dimensions takes the zero-padded path. Deliberately independent of CPU
// features: the scalar fallback pads identically (dotScalar over padded
// operands computes exactly the AVX lanes over padded operands), keeping
// outputs bit-identical across architectures.
func padKEligible(k, n int) bool {
	return k&3 != 0 && k <= padMatmulMaxK && n >= 4
}

// transposeB writes B (k×n) into bt as the matmul kernels read it: column
// j of B becomes row j of bt, zero-padded to btStride(k, n). The inner
// loops then run down contiguous columns, which is what both the AVX
// kernel and the cache want.
func transposeB(bt, b []float64, k, n int) {
	kp := btStride(k, n)
	if kp == k {
		transposeForward(bt, b, k, n)
		return
	}
	for j := 0; j < n; j++ {
		col := bt[j*kp : (j+1)*kp]
		for p := 0; p < k; p++ {
			col[p] = b[p*n+j]
		}
		for p := k; p < kp; p++ {
			col[p] = 0
		}
	}
}

// matmulBT computes out = a×B, plus bias (len n, or nil) on every row,
// against bt as transposeB left it. The bias is the matmul epilogue's add,
// bitwise addRowVectorForward's.
//
// On the zero-padded path a is first copied into ap (len m·btStride(k, n);
// nil borrows scratch) with its rows padded to match, and the kernel runs
// with no scalar tail. The padded steps compute FMA(0, 0, lane) = lane
// bit-exactly: a lane accumulator can never be -0 (it starts at +0, and a
// round-to-nearest sum is -0 only when both operands are -0), so zero
// products change nothing. The former k%4 tail elements join the four FMA
// lanes instead of the ascending scalar tail — a different (but fixed)
// summation order, chosen deterministically from the shapes alone, and
// mirrored exactly by the fused kernels (linearBiasForward,
// attentionSegment), so every path through a given matmul shape produces
// identical bits on every machine.
func matmulBT(out, a, bt, ap []float64, m, k, n int, bias []float64) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		clear(out[:m*n])
		biasReluRows(out, bias, 0, m, n, false)
		return
	}
	kp := btStride(k, n)
	if kp == k {
		matmulEpilogue(out, a, bt, m, k, n, bias, false)
		return
	}
	borrowed := ap == nil
	if borrowed {
		ap = scratch.GetSliceRaw(m * kp)
	}
	for i := 0; i < m; i++ {
		copy(ap[i*kp:i*kp+k], a[i*k:(i+1)*k])
		for p := i*kp + k; p < (i+1)*kp; p++ {
			ap[p] = 0
		}
	}
	matmulRows(out, ap, bt, 0, m, kp, n, bias, false)
	if borrowed {
		scratch.PutSlice(ap)
	}
}

// matmulEpilogue computes out = a×B against the pre-transposed bt (n×k),
// with an optional fused epilogue: bias (len n) added to every output row
// and/or ReLU clamping, applied per row block by the worker that wrote it.
// The epilogue mirrors addRowVectorForward and reluForward element for
// element, so a fused linear+bias+ReLU is bit-identical to the
// MatMul→AddRowVector→ReLU op chain.
func matmulEpilogue(out, a, bt []float64, m, k, n int, bias []float64, relu bool) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		clear(out[:m*n])
		biasReluRows(out, bias, 0, m, n, relu)
		return
	}
	if m*k*n >= matmulParallelMin {
		parallelRows(m, 2, func(lo, hi int) {
			matmulRows(out, a, bt, lo, hi, k, n, bias, relu)
		})
	} else {
		matmulRows(out, a, bt, 0, m, k, n, bias, relu)
	}
}

// biasReluRows applies the fused epilogue to output rows [lo, hi): bias add
// (exactly addRowVectorForward's a[j]+v[j]) then ReLU (exactly reluForward's
// v>0 test — NaN and -0 clamp to +0 on both paths).
func biasReluRows(out, bias []float64, lo, hi, n int, relu bool) {
	if bias == nil && !relu {
		return
	}
	for i := lo; i < hi; i++ {
		orow := out[i*n : (i+1)*n]
		if bias != nil {
			for j, bv := range bias {
				orow[j] += bv
			}
		}
		if relu {
			for j, v := range orow {
				if !(v > 0) {
					orow[j] = 0
				}
			}
		}
	}
}

// matmulRows computes output rows [lo, hi) against the transposed bt
// (n×k). Rows are processed in pairs and columns in blocks of 4 — the
// register blocking of dotRows24avx, which keeps the whole column loop in
// assembly; edge rows and columns fall back to dotScalar, which produces
// bit-identical values. The bias/ReLU epilogue is applied per row after the
// raw dots land — the same add and clamp biasReluRows performs, element for
// element.
func matmulRows(out, a, bt []float64, lo, hi, k, n int, bias []float64, relu bool) {
	k4 := k &^ 3
	n4 := n &^ 3
	i := lo
	if useAVX && k4 > 0 && n4 > 0 {
		nb := n4 >> 2
		// With no k%4 tail the bias/ReLU epilogue runs packed inside the
		// kernel; otherwise the tail sums must land first, so the epilogue
		// stays in finishRow.
		var biasPtr *float64
		reluFlag := 0
		epInAsm := k4 == k
		if epInAsm {
			if bias != nil {
				biasPtr = &bias[0]
			}
			if relu {
				reluFlag = 1
			}
		}
		for ; i+1 < hi; i += 2 {
			a0 := a[i*k : (i+1)*k]
			a1 := a[(i+1)*k : (i+2)*k]
			o0 := out[i*n : (i+1)*n]
			o1 := out[(i+1)*n : (i+2)*n]
			dotRows24avx(&a0[0], &a1[0], &bt[0], k, k4, nb, &o0[0], &o1[0], biasPtr, reluFlag)
			if !epInAsm {
				finishRow(o0, a0, bt, k, k4, n4, n, bias, relu)
				finishRow(o1, a1, bt, k, k4, n4, n, bias, relu)
			} else {
				edgeCols(o0, a0, bt, k, n4, n, bias, relu)
				edgeCols(o1, a1, bt, k, n4, n, bias, relu)
			}
		}
		if i < hi {
			// Trailing odd row through the same kernel with both row
			// operands aliased to it: the o1 stores then rewrite o0's
			// values in place, and each lane carries the dot products in
			// dotScalar order, so the row is bit-identical.
			a0 := a[i*k : (i+1)*k]
			o0 := out[i*n : (i+1)*n]
			dotRows24avx(&a0[0], &a0[0], &bt[0], k, k4, nb, &o0[0], &o0[0], biasPtr, reluFlag)
			if !epInAsm {
				finishRow(o0, a0, bt, k, k4, n4, n, bias, relu)
			} else {
				edgeCols(o0, a0, bt, k, n4, n, bias, relu)
			}
			i = hi
		}
	}
	for ; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			orow[j] = epilogue(dotScalar(arow, bt[j*k:(j+1)*k], k), bias, j, relu)
		}
	}
}

// edgeCols computes the n%4 edge columns of one output row via dotScalar
// plus the scalar epilogue, for the path where dotRows24avx already applied
// the epilogue to the first n4 columns in assembly.
func edgeCols(orow, arow, bt []float64, k, n4, n int, bias []float64, relu bool) {
	for j := n4; j < n; j++ {
		orow[j] = epilogue(dotScalar(arow, bt[j*k:(j+1)*k], k), bias, j, relu)
	}
}

// finishRow completes one output row after dotRows24avx has written the
// lane-reduced dots for the first n4 columns: the ascending k%4 scalar tail
// (the same order dotScalar uses, applied after the lane reduce), the n%4
// edge columns via dotScalar, and then the bias/ReLU epilogue across the
// row — exactly biasReluRows' add and clamp, element for element.
func finishRow(orow, arow, bt []float64, k, k4, n4, n int, bias []float64, relu bool) {
	if k4 < k {
		for j := 0; j < n4; j++ {
			col := bt[j*k : (j+1)*k]
			s := orow[j]
			for p := k4; p < k; p++ {
				s = math.FMA(arow[p], col[p], s)
			}
			orow[j] = s
		}
	}
	for j := n4; j < n; j++ {
		orow[j] = dotScalar(arow, bt[j*k:(j+1)*k], k)
	}
	if bias != nil {
		for j, bv := range bias {
			orow[j] += bv
		}
	}
	if relu {
		for j, v := range orow[:n] {
			if !(v > 0) {
				orow[j] = 0
			}
		}
	}
}

// epilogue applies the fused bias/ReLU to one freshly computed element:
// exactly addRowVectorForward's add and reluForward's clamp (NaN and -0
// clamp to +0).
func epilogue(v float64, bias []float64, j int, relu bool) float64 {
	if bias != nil {
		v += bias[j]
	}
	if relu && !(v > 0) {
		return 0
	}
	return v
}

// dotScalar mirrors dotRows24avx element for element: four independent FMA
// lanes over the k&^3 prefix (math.FMA is the single-rounding IEEE
// fusedMultiplyAdd, bit-identical to VFMADD231PD lane arithmetic), reduced
// as (s0+s1)+(s2+s3), then an ascending FMA tail.
func dotScalar(a, b []float64, k int) float64 {
	var s0, s1, s2, s3 float64
	k4 := k &^ 3
	for p := 0; p < k4; p += 4 {
		s0 = math.FMA(a[p], b[p], s0)
		s1 = math.FMA(a[p+1], b[p+1], s1)
		s2 = math.FMA(a[p+2], b[p+2], s2)
		s3 = math.FMA(a[p+3], b[p+3], s3)
	}
	s := (s0 + s1) + (s2 + s3)
	for p := k4; p < k; p++ {
		s = math.FMA(a[p], b[p], s)
	}
	return s
}
