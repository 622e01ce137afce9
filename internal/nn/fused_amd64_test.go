//go:build amd64

package nn

import (
	"testing"

	"github.com/repro/snowplow/internal/rng"
)

// TestFusedScalarFallbackBitExact re-runs the fused-against-TrainOps
// equality with the AVX kernel disabled, pinning the scalar fallback (the
// matmul_other.go build-tag path on non-amd64 hosts) to the same bits as the
// AVX TrainOps reference.
func TestFusedScalarFallbackBitExact(t *testing.T) {
	if !useAVX {
		t.Skip("host has no AVX; the main tests already run the scalar path")
	}
	r := rng.New(97)
	sa, mlp, _ := quantTestModel(r)
	refreshFusedCaches(sa, mlp)
	x := benchTensor(r, 10, 16)
	whole := []int{0, 10}
	pool := NewPool()

	reference := func() []float64 {
		return mlp.ForwardOps(TrainOps{}, sa.ForwardOps(TrainOps{}, x)).Data
	}
	fused := func() []float64 {
		in := NewInfer(pool)
		defer in.Close()
		return append([]float64(nil), mlp.ForwardInfer(in, sa.ForwardRaggedInfer(in, x, whole)).Data...)
	}

	avx := reference()

	useAVX = false
	defer func() { useAVX = true }()

	sameBits(t, "scalar TrainOps vs AVX", reference(), avx)
	sameBits(t, "scalar fused vs AVX", fused(), avx)
}
