package nn

// cpuHasAVXFMA reports AVX + FMA3 + OS YMM-state support (implemented in
// assembly).
func cpuHasAVXFMA() bool

// dotRows24avx computes two full output rows against nb four-column blocks
// of the transposed bt (column stride k), writing the lane-reduced FMA dot
// products to o0/o1 with an optional packed bias/ReLU epilogue —
// bit-identical to dotScalar plus the scalar epilogue per element; see
// matmul_amd64.s. bias/relu may only be passed when k%4 == 0.
//
//go:noescape
func dotRows24avx(a0, a1, bt *float64, k, k4, nb int, o0, o1, bias *float64, relu int)

// gradARows2Avx adds the dA = dOut·Bᵀ sums of two rows into d0/d1 for the
// first 24·np24 + 4·np4 columns, reading B transposed (bt, row stride ldb);
// bit-identical to gradARowsScalar, see matmul_grad.go and matmul_amd64.s.
//
//go:noescape
func gradARows2Avx(g0, g1, bt *float64, ldb, n, np24, np4 int, d0, d1 *float64)

// gradBRows2Avx adds the dB = Aᵀ·dOut updates of two rows of dB into d0/d1
// for the first 24·np24 + 4·np4 columns; bit-identical to gradBColsScalar,
// see matmul_grad.go and matmul_amd64.s.
//
//go:noescape
func gradBRows2Avx(a0, a1 *float64, lda int, dout *float64, ldg, m, np24, np4 int, d0, d1 *float64)

// The elementwise kernels below each apply one packed step per element with
// the exact operand order and rounding count of their scalar mirrors in
// elemwise.go (never an FMA contraction), so the vector width cannot change
// a bit. All require n % 4 == 0; the Go wrappers handle tails.

//go:noescape
func ewAddAvx(dst, a *float64, n int)

//go:noescape
func ewAdd2Avx(dst, x, y *float64, n int)

//go:noescape
func ewMulAddAvx(dst, a *float64, c float64, n int)

//go:noescape
func ewScaleAvx(dst *float64, c float64, n int)

//go:noescape
func ewReluAvx(dst *float64, n int)

//go:noescape
func ewNormAvx(dst, gamma, beta *float64, mean, invStd float64, n int)

var useAVX = cpuHasAVXFMA()

// SetAVX turns the assembly kernels on (where the CPU supports them) or off
// and returns the previous setting. Every kernel is bit-identical to its
// pure-Go mirror, so this changes speed, never results; tests use it to run
// the scalar fallback on an AVX host. It must not be called while any nn
// work is in flight.
func SetAVX(on bool) (prev bool) {
	prev = useAVX
	useAVX = on && cpuHasAVXFMA()
	return prev
}
