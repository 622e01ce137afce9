package nn

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/repro/snowplow/internal/rng"
)

// naiveMatMul is the reference triple loop (the pre-optimization kernel).
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a.Data[i*k+p]
			for j := 0; j < n; j++ {
				out.Data[i*n+j] += av * b.Data[p*n+j]
			}
		}
	}
	return out
}

// TestMatMulMatchesNaive checks the blocked kernel against the reference
// triple loop to float tolerance (the summation orders differ, so exact
// equality is not expected) across square and ragged shapes.
func TestMatMulMatchesNaive(t *testing.T) {
	r := rng.New(11)
	shapes := [][3]int{
		{1, 1, 1}, {2, 3, 4}, {5, 7, 3}, {8, 8, 8}, {17, 9, 23},
		{24, 24, 24}, {64, 64, 64}, {63, 65, 61}, {1, 100, 1}, {100, 1, 100},
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := benchTensor(r, m, k)
		b := benchTensor(r, k, n)
		got := MatMul(a, b)
		want := naiveMatMul(a, b)
		for i := range want.Data {
			diff := math.Abs(got.Data[i] - want.Data[i])
			scale := math.Abs(want.Data[i]) + 1
			if diff/scale > 1e-12 {
				t.Fatalf("(%d,%d)x(%d,%d): element %d = %g, reference %g", m, k, k, n, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestMatMulScalarMirrorBitExact verifies the determinism contract between
// the AVX kernel and its scalar mirror: both paths must produce
// bit-identical outputs element for element. On non-AVX hosts the test
// degenerates to self-comparison and trivially passes.
func TestMatMulScalarMirrorBitExact(t *testing.T) {
	r := rng.New(13)
	shapes := [][3]int{{4, 4, 4}, {8, 12, 16}, {7, 5, 9}, {64, 64, 64}, {33, 65, 17}}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := benchTensor(r, m, k)
		b := benchTensor(r, k, n)
		got := MatMul(a, b) // AVX path where supported
		// The small-k shapes take the zero-padded path: the mirror is
		// dotScalar over the operands zero-padded to a multiple of four,
		// exactly as matmulBT lays them out.
		kd := k
		if padKEligible(k, n) {
			kd = (k + 3) &^ 3
		}
		bt := make([]float64, kd*n)
		for j := 0; j < n; j++ {
			for p := 0; p < k; p++ {
				bt[j*kd+p] = b.Data[p*n+j]
			}
		}
		ap := make([]float64, m*kd)
		for i := 0; i < m; i++ {
			copy(ap[i*kd:i*kd+k], a.Data[i*k:(i+1)*k])
		}
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				want := dotScalar(ap[i*kd:(i+1)*kd], bt[j*kd:(j+1)*kd], kd)
				if got.Data[i*n+j] != want {
					t.Fatalf("(%d,%d,%d): element (%d,%d) = %b, scalar mirror %b", m, k, n, i, j, got.Data[i*n+j], want)
				}
			}
		}
	}
}

// TestMatMulWorkerCountInvariant is the golden determinism test: the same
// multiply must be bit-identical for every worker count, including ragged
// shapes whose row count does not divide evenly across workers.
func TestMatMulWorkerCountInvariant(t *testing.T) {
	defer SetWorkers(1)
	r := rng.New(17)
	shapes := [][3]int{{64, 64, 64}, {65, 33, 29}, {128, 24, 24}, {7, 80, 11}}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := benchTensor(r, m, k)
		b := benchTensor(r, k, n)
		SetWorkers(1)
		want := MatMul(a, b)
		for _, workers := range []int{2, 3, 4, 8} {
			SetWorkers(workers)
			got := MatMul(a, b)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("shape %v workers=%d: element %d = %b, serial %b", s, workers, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestMatMulConcurrentCallers hammers MatMul from many goroutines sharing
// the worker pool and the scratch pool; run with -race. Every caller must
// get the bit-exact serial answer.
func TestMatMulConcurrentCallers(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(1)
	r := rng.New(19)
	a := benchTensor(r, 48, 32)
	b := benchTensor(r, 32, 40)
	SetWorkers(1)
	want := MatMul(a, b)
	SetWorkers(4)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got := MatMul(a, b)
				for j := range want.Data {
					if got.Data[j] != want.Data[j] {
						errs <- fmt.Errorf("concurrent result diverged at %d", j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestSetWorkersWhileRunning races pool resizes against running multiplies;
// run with -race. This guards the RWMutex handoff in parallelRows.
func TestSetWorkersWhileRunning(t *testing.T) {
	defer SetWorkers(1)
	r := rng.New(23)
	a := benchTensor(r, 64, 64)
	b := benchTensor(r, 64, 64)
	want := MatMul(a, b)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		sizes := []int{1, 2, 4, 3}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				SetWorkers(sizes[i%len(sizes)])
			}
		}
	}()
	for i := 0; i < 200; i++ {
		got := MatMul(a, b)
		for j := range want.Data {
			if got.Data[j] != want.Data[j] {
				close(stop)
				wg.Wait()
				t.Fatalf("result diverged during pool resize at %d", j)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestMatMulDegenerateShapes(t *testing.T) {
	a := New(0, 5)
	b := New(5, 3)
	if got := MatMul(a, b); got.Shape[0] != 0 || got.Shape[1] != 3 {
		t.Fatalf("0-row result shape %v", got.Shape)
	}
	c := New(3, 0)
	d := New(0, 4)
	got := MatMul(c, d)
	for i, v := range got.Data {
		if v != 0 {
			t.Fatalf("k=0 product element %d = %g, want 0", i, v)
		}
	}
}
