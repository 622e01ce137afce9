package nn

import (
	"fmt"
	"math"
	"testing"

	"github.com/repro/snowplow/internal/rng"
)

// oracleMatMulBackward is the MatMul backward as two plain scalar loops —
// the reference the vectorised kernels of matmul_grad.go must reproduce bit
// for bit: dA[i,p] += Σ_j g[i,j]·b[p,j] (sequential from +0), then
// dB[p,j] += a[i,p]·g[i,j] for i ascending, skipping a[i,p] == ±0.
func oracleMatMulBackward(ag, bg, a, b, g []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		grow := g[i*n : (i+1)*n]
		agrow := ag[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			brow := b[p*n : (p+1)*n]
			var s float64
			for j := 0; j < n; j++ {
				s += float64(grow[j] * brow[j])
			}
			agrow[p] += s
		}
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		grow := g[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			bgrow := bg[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				bgrow[j] += float64(av * grow[j])
			}
		}
	}
}

// sameBitsOrNaN is sameBits with every NaN equal to every other NaN.
func sameBitsOrNaN(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s differs at %d: %v (%#x) vs %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// specialFill overwrites about one element in five of s with a value from
// specials (none when specials is empty), the rest staying as drawn.
func specialFill(r *rng.Rand, s []float64, specials []float64) {
	if len(specials) == 0 {
		return
	}
	for i := range s {
		if r.Intn(5) == 0 {
			s[i] = specials[r.Intn(len(specials))]
		}
	}
}

// TestMatMulBackwardBitExact runs MatMul's backward — through the heap and
// the arena allocator, with the AVX kernels on and off — against the scalar
// oracle by math.Float64bits, over shapes that hit every panel width (24,
// 4), the width%4 edges, odd trailing rows and the zero-padded small-k
// forward. Each shape runs twice. The finite pass puts ±0 in A (the dB
// skip) and in the starting gradients, so a changed summation order or a
// fused multiply-add shows as a rounding difference. The special pass adds
// ±Inf and NaNs to every operand; there a NaN matches any NaN, since which
// payload survives where two NaNs meet follows the compiler's operand order
// (matmul_grad.go).
func TestMatMulBackwardBitExact(t *testing.T) {
	r := rng.New(29)
	negZero := math.Copysign(0, -1)
	nan := func(payload uint64) float64 { return math.Float64frombits(0x7ff8000000000000 | payload) }
	same := map[bool]func(*testing.T, string, []float64, []float64){false: sameBits, true: sameBitsOrNaN}
	// Values planted in A, B, dOut and the starting gradients, per pass.
	type plant struct{ a, b, g, grad []float64 }
	zeros := []float64{0, negZero}
	passes := map[bool]plant{
		false: {a: zeros, grad: zeros},
		true: {
			a:    []float64{0, negZero, nan(0xa)},
			b:    []float64{math.Inf(1), nan(0xb)},
			g:    []float64{math.Inf(1), math.Inf(-1), math.NaN(), nan(0xc), math.Float64frombits(0xfff0000000000123), 0, negZero},
			grad: []float64{0, negZero, nan(0xd)},
		},
	}
	sizes := []int{1, 3, 4, 5, 16, 23, 24, 25, 72}
	avxModes := []bool{true}
	if useAVX {
		avxModes = append(avxModes, false)
	}
	for _, m := range []int{0, 1, 2, 7, 33} {
		for _, k := range sizes {
			for _, n := range sizes {
				for _, special := range []bool{false, true} {
					pl := passes[special]
					a, b := benchTensor(r, m, k), benchTensor(r, k, n)
					g := benchTensor(r, m, n).Data
					ag0, bg0 := benchTensor(r, m, k).Data, benchTensor(r, k, n).Data
					specialFill(r, a.Data, pl.a)
					specialFill(r, b.Data, pl.b)
					specialFill(r, g, pl.g)
					specialFill(r, ag0, pl.grad)
					specialFill(r, bg0, pl.grad)
					wantA := append([]float64(nil), ag0...)
					wantB := append([]float64(nil), bg0...)
					oracleMatMulBackward(wantA, wantB, a.Data, b.Data, g, m, k, n)

					for _, avx := range avxModes {
						for _, arena := range []bool{false, true} {
							name := fmt.Sprintf("m=%d k=%d n=%d special=%v avx=%v arena=%v", m, k, n, special, avx, arena)
							prev := SetAVX(avx)
							a.RequireGrad()
							b.RequireGrad()
							copy(a.Grad, ag0)
							copy(b.Grad, bg0)
							var ta *TrainArena // nil: the heap ops
							if arena {
								ta = NewTrainArena()
							}
							out := matMulVia(ta, a, b)
							copy(out.Grad, g)
							out.backward()
							same[special](t, name+" dA", a.Grad, wantA)
							same[special](t, name+" dB", b.Grad, wantB)
							if arena {
								ta.Close()
							}
							SetAVX(prev)
						}
					}
				}
			}
		}
	}
}
