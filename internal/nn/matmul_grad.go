package nn

// This file is the MatMul backward: dA = dOut·Bᵀ and dB = Aᵀ·dOut, added
// into the operands' gradients.
//
// Determinism contract: every gradient element is computed with exactly the
// arithmetic of the scalar loops (gradARowsScalar, gradBColsScalar), each
// product rounded before its add — never a fused multiply-add:
//
//   - dA[i,p] += s, where s starts at +0 and adds g[i,j]·b[p,j] for j
//     ascending. The AVX kernel (gradARows2Avx) vectorises across p — four
//     independent sums per register, read from the transposed B the forward
//     already built — so each lane runs the same sequential j-sum.
//   - dB[p,j] is updated in place by a[i,p]·g[i,j] for i ascending, skipping
//     every i with a[i,p] == ±0. The AVX kernel (gradBRows2Avx) vectorises
//     across j and holds a panel of dB in registers over the whole i loop;
//     the skip depends on (i, p) only, so it is the same test for every lane
//     of a register and the kernel takes it exactly where the loop does.
//
// The skip is not an optimisation that happens to be harmless: without it a
// zero a[i,p] against an infinite or NaN g[i,j] would add NaN, and a +0
// product would turn a -0 gradient into +0. Keeping it per (i, p) keeps the
// scalar semantics bit for bit.
//
// NaN payloads are outside the contract. Where two NaNs meet, the result
// carries one operand's payload, and which one depends on the order the Go
// compiler gives the scalar loops' commutative operands; it differs between
// an ordinary and a -race build. Every NaN stays a NaN on both paths.
//
// Both kernels are register-blocked: two rows of dA or dB × 24 columns in
// twelve accumulators. Widths that are not a multiple of 24 run four-column
// panels, and a width%4 edge runs the scalar loop over those elements only;
// a trailing odd row runs the two-row kernel with both rows aliased to it.
// Each element is computed by one pass over its own sum, so the blocking
// cannot change its arithmetic.

// matmulGradA adds dOut·Bᵀ into ag (m×k): g is dOut (m×n), b is B (k×n),
// and bt is B transposed with row stride ldb ≥ k, as transposeB leaves
// it (nil when no forward built one, which leaves the scalar loop).
func matmulGradA(ag, g, b, bt []float64, m, k, n, ldb int) {
	k4 := k &^ 3
	if !useAVX || len(bt) == 0 || k4 == 0 {
		gradARowsScalar(ag, g, b, 0, m, 0, k, n)
		return
	}
	np24, np4 := k4/24, k4%24/4
	for i := 0; i < m; i += 2 {
		i1 := i + 1
		if i1 == m {
			i1 = i
		}
		gradARows2Avx(&g[i*n], &g[i1*n], &bt[0], ldb, n, np24, np4, &ag[i*k], &ag[i1*k])
		if k4 < k {
			gradARowsScalar(ag, g, b, i, min(i+2, m), k4, k, n)
		}
	}
}

// gradARowsScalar is the scalar dA loop over rows [i0, i1) and columns
// [p0, k): the pure-Go mirror of gradARows2Avx, and its p%4 edge.
func gradARowsScalar(ag, g, b []float64, i0, i1, p0, k, n int) {
	for i := i0; i < i1; i++ {
		grow := g[i*n : (i+1)*n]
		agrow := ag[i*k : (i+1)*k]
		for p := p0; p < k; p++ {
			brow := b[p*n : (p+1)*n]
			var s float64
			for j := 0; j < n; j++ {
				s += float64(grow[j] * brow[j])
			}
			agrow[p] += s
		}
	}
}

// matmulGradB adds Aᵀ·dOut into bg (k×n): a is A (m×k), g is dOut (m×n).
func matmulGradB(bg, a, g []float64, m, k, n int) {
	n4 := n &^ 3
	if !useAVX || n4 == 0 || m == 0 {
		gradBColsScalar(bg, a, g, m, k, n, 0)
		return
	}
	np24, np4 := n4/24, n4%24/4
	for p := 0; p < k; p += 2 {
		p1 := p + 1
		if p1 == k {
			p1 = p
		}
		gradBRows2Avx(&a[p], &a[p1], k, &g[0], n, m, np24, np4, &bg[p*n], &bg[p1*n])
	}
	if n4 < n {
		gradBColsScalar(bg, a, g, m, k, n, n4)
	}
}

// gradBColsScalar is the scalar dB loop over columns [j0, n): the pure-Go
// mirror of gradBRows2Avx, and its n%4 edge.
func gradBColsScalar(bg, a, g []float64, m, k, n, j0 int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		grow := g[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			bgrow := bg[p*n : (p+1)*n]
			for j := j0; j < n; j++ {
				bgrow[j] += float64(av * grow[j])
			}
		}
	}
}
