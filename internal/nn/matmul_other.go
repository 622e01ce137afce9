//go:build !amd64

package nn

const useAVX = false

// SetAVX is a no-op without the amd64 kernels: the pure-Go mirrors always
// run. It reports false, the only setting there is.
func SetAVX(on bool) (prev bool) { return false }

// dotRows24avx is never called when useAVX is false.
func dotRows24avx(a0, a1, bt *float64, k, k4, nb int, o0, o1, bias *float64, relu int) {
	panic("nn: dotRows24avx without AVX support")
}

// The MatMul backward kernels are never called when useAVX is false.

func gradARows2Avx(g0, g1, bt *float64, ldb, n, np24, np4 int, d0, d1 *float64) {
	panic("nn: gradARows2Avx without AVX support")
}

func gradBRows2Avx(a0, a1 *float64, lda int, dout *float64, ldg, m, np24, np4 int, d0, d1 *float64) {
	panic("nn: gradBRows2Avx without AVX support")
}

// The elementwise kernels are never called when useAVX is false.

func ewAddAvx(dst, a *float64, n int) { panic("nn: ewAddAvx without AVX support") }

func ewAdd2Avx(dst, x, y *float64, n int) { panic("nn: ewAdd2Avx without AVX support") }

func ewMulAddAvx(dst, a *float64, c float64, n int) { panic("nn: ewMulAddAvx without AVX support") }

func ewScaleAvx(dst *float64, c float64, n int) { panic("nn: ewScaleAvx without AVX support") }

func ewReluAvx(dst *float64, n int) { panic("nn: ewReluAvx without AVX support") }

func ewNormAvx(dst, gamma, beta *float64, mean, invStd float64, n int) {
	panic("nn: ewNormAvx without AVX support")
}
