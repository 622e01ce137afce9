//go:build amd64

package nn

import (
	"testing"

	"github.com/repro/snowplow/internal/rng"
)

// TestFusedScalarFallbackBitExact re-runs the fused/unfused equality with
// the AVX kernel disabled, pinning the scalar fallback (the
// matmul_other.go build-tag path on non-amd64 hosts) to the same bits.
func TestFusedScalarFallbackBitExact(t *testing.T) {
	if !useAVX {
		t.Skip("host has no AVX; the main tests already run the scalar path")
	}
	r := rng.New(97)
	sa, mlp, _ := quantTestModel(r)
	refreshFusedCaches(sa, mlp)
	x := benchTensor(r, 10, 16)
	pool := NewPool()

	forward := func(ops Ops) []float64 {
		h := sa.ForwardOps(ops, x)
		out := mlp.ForwardOps(ops, h)
		res := append([]float64(nil), out.Data...)
		return res
	}

	un := NewInfer(pool)
	avx := forward(un)
	un.Close()

	useAVX = false
	defer func() { useAVX = true }()

	un2 := NewInfer(pool)
	scalarUnfused := forward(un2)
	un2.Close()
	fu := NewInferFused(pool)
	scalarFused := forward(fu)
	fu.Close()

	sameBits(t, "scalar unfused vs AVX", scalarUnfused, avx)
	sameBits(t, "scalar fused vs AVX", scalarFused, avx)
}
