package nn

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/repro/snowplow/internal/rng"
)

func benchTensor(r *rng.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = r.NormFloat64()
	}
	return t
}

// BenchmarkMatMul64 measures the d=64 square multiply; the workers
// sub-benchmarks exercise the persistent pool (on a single-core host the
// speedup over the pre-optimization baseline comes from the blocked AVX
// kernel, and extra workers only add dispatch overhead).
func BenchmarkMatMul64(b *testing.B) {
	r := rng.New(7)
	x := benchTensor(r, 64, 64)
	y := benchTensor(r, 64, 64)
	nsPerOp := map[string]float64{}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			prev := Workers()
			SetWorkers(workers)
			defer SetWorkers(prev)
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				_ = MatMul(x, y)
			}
			nsPerOp[fmt.Sprintf("workers=%d", workers)] =
				float64(time.Since(start).Nanoseconds()) / float64(b.N)
		})
	}
	if dir := os.Getenv("BENCH_JSON"); dir != "" {
		data, err := json.MarshalIndent(map[string]interface{}{
			"benchmark": "BenchmarkMatMul64", "ns_per_op": nsPerOp,
		}, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(dir, "BENCH_matmul64.json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
		b.Logf("wrote %s", path)
	}
}

// BenchmarkMatMul256 is the larger regime batched serving reaches when it
// packs many query graphs into one forward pass.
func BenchmarkMatMul256(b *testing.B) {
	r := rng.New(7)
	x := benchTensor(r, 256, 256)
	y := benchTensor(r, 256, 256)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			prev := Workers()
			SetWorkers(workers)
			defer SetWorkers(prev)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = MatMul(x, y)
			}
		})
	}
}

// BenchmarkMatMulBackward measures one MatMul backward (dA and dB) on the
// two shapes that carry the PMM's training traffic: a 7-row block through a
// 24×24 linear (the token encoder and per-vertex layers) and the 594-row
// pairwise head input through its 72×24 layer. The scalar sub-benchmarks
// run the pure-Go loops the AVX kernels reproduce bit for bit.
func BenchmarkMatMulBackward(b *testing.B) {
	for _, s := range []struct{ m, k, n int }{{7, 24, 24}, {594, 72, 24}} {
		for _, avx := range []bool{true, false} {
			kernel := "avx"
			if !avx {
				kernel = "scalar"
			}
			b.Run(fmt.Sprintf("%dx%dx%d/%s", s.m, s.k, s.n, kernel), func(b *testing.B) {
				prev := SetAVX(avx)
				defer SetAVX(prev)
				r := rng.New(7)
				x := benchTensor(r, s.m, s.k).RequireGrad()
				w := benchTensor(r, s.k, s.n).RequireGrad()
				out := MatMul(x, w)
				copy(out.Grad, benchTensor(r, s.m, s.n).Data)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out.backward()
				}
			})
		}
	}
}

// BenchmarkInferMLP contrasts the fused inference path against the
// allocating training-ops path on a frozen MLP.
func BenchmarkInferMLP(b *testing.B) {
	r := rng.New(9)
	mlp := NewMLP(r, 64, 64, 64, 1)
	for _, p := range mlp.Params() {
		p.UnrequireGrad()
	}
	x := benchTensor(r, 32, 64)
	b.Run("trainops", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = mlp.Forward(x)
		}
	})
	b.Run("fused", func(b *testing.B) {
		pool := NewPool()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			in := NewInfer(pool)
			_ = mlp.ForwardInfer(in, x)
			in.Close()
		}
	})
}
