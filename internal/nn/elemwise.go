package nn

// Elementwise kernel wrappers. Each applies exactly one scalar operation
// sequence per element; the AVX fast path (matmul_amd64.s) packs four
// elements per instruction with the same operand order and the same number
// of roundings, so results are bit-identical to the scalar loops at any
// vector width — unlike dot products, there is no accumulation order to
// preserve. Tails (len % 4) always run the scalar loop.

// addInto adds a into dst: dst[i] += a[i].
func addInto(dst, a []float64) {
	i := 0
	if useAVX {
		if n4 := len(dst) &^ 3; n4 > 0 {
			ewAddAvx(&dst[0], &a[0], n4)
			i = n4
		}
	}
	for ; i < len(dst); i++ {
		dst[i] += a[i]
	}
}

// add2Into writes the elementwise sum: dst[i] = x[i] + y[i].
func add2Into(dst, x, y []float64) {
	i := 0
	if useAVX {
		if n4 := len(dst) &^ 3; n4 > 0 {
			ewAdd2Avx(&dst[0], &x[0], &y[0], n4)
			i = n4
		}
	}
	for ; i < len(dst); i++ {
		dst[i] = x[i] + y[i]
	}
}

// mulAddInto accumulates a scaled row: dst[i] += a[i]*c, with the multiply
// rounded before the add (two roundings, never FMA).
func mulAddInto(dst, a []float64, c float64) {
	i := 0
	if useAVX {
		if n4 := len(dst) &^ 3; n4 > 0 {
			ewMulAddAvx(&dst[0], &a[0], c, n4)
			i = n4
		}
	}
	for ; i < len(dst); i++ {
		dst[i] += float64(a[i] * c)
	}
}

// scaleInPlace multiplies dst by c: dst[i] *= c.
func scaleInPlace(dst []float64, c float64) {
	i := 0
	if useAVX {
		if n4 := len(dst) &^ 3; n4 > 0 {
			ewScaleAvx(&dst[0], c, n4)
			i = n4
		}
	}
	for ; i < len(dst); i++ {
		dst[i] *= c
	}
}

// reluInPlace clamps dst to [0, ∞): !(v > 0) → +0, so NaN and -0 both
// become +0 (the VMAXPD second-operand-wins semantics).
func reluInPlace(dst []float64) {
	i := 0
	if useAVX {
		if n4 := len(dst) &^ 3; n4 > 0 {
			ewReluAvx(&dst[0], n4)
			i = n4
		}
	}
	for ; i < len(dst); i++ {
		if !(dst[i] > 0) {
			dst[i] = 0
		}
	}
}

// normAffineInPlace applies the LayerNorm affine to one row in place:
// dst[i] = (dst[i]-mean)*invStd*gamma[i] + beta[i], left-associated, one
// rounding per step.
func normAffineInPlace(dst, gamma, beta []float64, mean, invStd float64) {
	i := 0
	if useAVX {
		if n4 := len(dst) &^ 3; n4 > 0 {
			ewNormAvx(&dst[0], &gamma[0], &beta[0], mean, invStd, n4)
			i = n4
		}
	}
	for ; i < len(dst); i++ {
		dst[i] = float64((dst[i]-mean)*invStd*gamma[i]) + beta[i]
	}
}
