package nn

import (
	"testing"

	"github.com/repro/snowplow/internal/rng"
)

func TestPoolReuseAndZeroing(t *testing.T) {
	p := NewPool()
	s := p.GetSlice(100)
	if len(s) != 100 {
		t.Fatalf("GetSlice(100) len = %d", len(s))
	}
	for i := range s {
		s[i] = float64(i) + 1
	}
	p.PutSlice(s)
	s2 := p.GetSlice(100)
	for i, v := range s2 {
		if v != 0 {
			t.Fatalf("reused slice not zeroed at %d: %g", i, v)
		}
	}
	st := p.Stats()
	if st.Borrows != 2 || st.Reuses != 1 {
		t.Fatalf("stats = %+v, want 2 borrows / 1 reuse", st)
	}
}

func TestPoolSizeClasses(t *testing.T) {
	p := NewPool()
	s := p.GetSlice(33) // class 64
	if cap(s) != 64 {
		t.Fatalf("cap = %d, want size class 64", cap(s))
	}
	p.PutSlice(s)
	// A smaller request in the same class must reuse the slab.
	s2 := p.GetSlice(40)
	if cap(s2) != 64 || p.Stats().Reuses != 1 {
		t.Fatalf("cross-length reuse within class failed: cap=%d stats=%+v", cap(s2), p.Stats())
	}
}

func TestPoolBoundedIdle(t *testing.T) {
	p := NewPool()
	slabs := make([][]float64, 0, maxSlabsPerClass+10)
	for i := 0; i < maxSlabsPerClass+10; i++ {
		slabs = append(slabs, p.GetSliceRaw(64))
	}
	for _, s := range slabs {
		p.PutSlice(s)
	}
	if idle := p.Stats().Idle; idle > maxSlabsPerClass {
		t.Fatalf("idle slabs %d exceed cap %d", idle, maxSlabsPerClass)
	}
}

func TestPoolRejectsForeignSlices(t *testing.T) {
	p := NewPool()
	p.PutSlice(make([]float64, 33)) // cap 33: not a power-of-two class
	p.PutSlice(make([]float64, 8))  // below minSlabClass
	if idle := p.Stats().Idle; idle != 0 {
		t.Fatalf("foreign slices entered the pool: idle=%d", idle)
	}
}

func TestBorrowRelease(t *testing.T) {
	p := NewPool()
	a := p.Borrow(4, 8)
	if a.Shape[0] != 4 || a.Shape[1] != 8 || len(a.Data) != 32 {
		t.Fatalf("borrowed tensor shape %v len %d", a.Shape, len(a.Data))
	}
	a.Data[0] = 99
	p.Release(a)
	b := p.Borrow(2, 16)
	if b.Data[0] != 0 {
		t.Fatal("borrowed tensor carries stale data")
	}
	if p.Stats().Reuses != 1 {
		t.Fatalf("stats = %+v, want one reuse", p.Stats())
	}
}

// TestInferGoldenVsTrain is the golden determinism test for the pooled
// inference path: a frozen model forwarded through Infer must be
// bit-identical to the TrainOps path, on the first pass and on later
// passes that hit warm pool memory (catching stale-slab bugs).
func TestInferGoldenVsTrain(t *testing.T) {
	r := rng.New(31)
	mlp := NewMLP(r, 16, 32, 32, 4)
	sa := NewSelfAttention(r, 16)
	for _, p := range append(mlp.Params(), sa.Params()...) {
		p.UnrequireGrad()
	}
	x := benchTensor(r, 12, 16)
	wantSA := sa.Forward(x)
	wantMLP := mlp.Forward(wantSA)

	pool := NewPool()
	for pass := 0; pass < 3; pass++ {
		in := NewInfer(pool)
		gotSA := sa.ForwardRaggedInfer(in, x, []int{0, 12})
		gotMLP := mlp.ForwardInfer(in, gotSA)
		for i := range wantSA.Data {
			if gotSA.Data[i] != wantSA.Data[i] {
				t.Fatalf("pass %d: attention output differs at %d", pass, i)
			}
		}
		for i := range wantMLP.Data {
			if gotMLP.Data[i] != wantMLP.Data[i] {
				t.Fatalf("pass %d: mlp output differs at %d", pass, i)
			}
		}
		in.Close()
	}
}

// TestInferRecycleReuse verifies that Recycle returns memory mid-forward so
// a chain of same-shaped ops runs in O(1) slabs: the per-Infer cache absorbs
// the churn without shared-pool round trips, and Close hands the slabs back
// so the next pass reuses them.
func TestInferRecycleReuse(t *testing.T) {
	pool := NewPool()
	in := NewInfer(pool)
	a := in.Zeros(8, 8)
	rows := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for i := 0; i < 10; i++ {
		b := in.Gather(a, rows)
		in.Recycle(a)
		a = b
	}
	in.Close()
	st := pool.Stats()
	if st.Borrows > 3 {
		t.Fatalf("chain of 11 same-shaped tensors took %d pool borrows, want ≤3 (the local cache should absorb the churn)", st.Borrows)
	}
	in2 := NewInfer(pool)
	in2.Recycle(in2.Zeros(8, 8))
	in2.Close()
	if st2 := pool.Stats(); st2.Reuses == 0 {
		t.Fatalf("second pass did not reuse the drained slabs: %+v", st2)
	}
}
