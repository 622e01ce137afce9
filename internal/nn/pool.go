package nn

import "sync"

// Pool is a thread-safe, size-classed free list of float64 slabs. It backs
// the allocation-free inference path: tensors borrowed from a pool and
// released after a forward pass are recycled instead of garbage-collected,
// so steady-state serving allocates (almost) nothing per query.
//
// Tensor structs released through Release are recycled too (data slab and
// header alike), so a steady-state fused forward pass performs zero heap
// allocations — see the arena-leak test in fused_test.go.
//
// A released slab's contents are undefined until it is borrowed again;
// Borrow and GetSlice return zeroed memory, so pooled forwards are
// bit-identical to fresh-allocation forwards.
type Pool struct {
	mu       sync.Mutex
	classes  map[int][][]float64
	tfree    []*Tensor
	perClass int
	borrows  int64
	reuses   int64

	// prof accumulates the fused kernel counters and (when kernel
	// profiling is on) per-op kernel time flushed by Infer.Close.
	prof profileAtomics
}

// maxSlabsPerClass bounds the idle slabs retained per size class for pools
// created with NewPool. Inference passes keep only a handful of live slabs
// per class, so a small cap suffices.
const maxSlabsPerClass = 64

// minSlabClass is the smallest slab capacity; tiny requests share it.
const minSlabClass = 32

// maxFreeTensors bounds the recycled Tensor headers a pool retains.
const maxFreeTensors = 512

// NewPool creates an empty pool with the default per-class retention cap.
func NewPool() *Pool {
	return NewPoolCap(maxSlabsPerClass)
}

// NewPoolCap creates an empty pool retaining up to perClass idle slabs per
// size class (the trainer sizes its per-example gradient slabs this way).
func NewPoolCap(perClass int) *Pool {
	if perClass < 1 {
		perClass = 1
	}
	return &Pool{classes: map[int][][]float64{}, perClass: perClass}
}

// PoolStats reports pool traffic.
type PoolStats struct {
	// Borrows counts GetSlice/Borrow calls; Reuses counts how many were
	// satisfied from the free list instead of the heap.
	Borrows, Reuses int64
	// Idle is the number of slabs currently parked in the free lists.
	Idle int
}

// Stats returns a snapshot of pool traffic.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	idle := 0
	for _, slabs := range p.classes {
		idle += len(slabs)
	}
	return PoolStats{Borrows: p.borrows, Reuses: p.reuses, Idle: idle}
}

// slabClass is the smallest power-of-two capacity holding n elements.
func slabClass(n int) int {
	c := minSlabClass
	for c < n {
		c <<= 1
	}
	return c
}

// GetSlice returns a zeroed slice of length n backed by a pooled slab. A
// slab freshly allocated from the heap is already zero, so only a reused
// one is cleared, as in borrow.
func (p *Pool) GetSlice(n int) []float64 {
	s, fresh := p.getSlice(n)
	if !fresh {
		clear(s)
	}
	return s
}

// GetSliceRaw is GetSlice without the zeroing, for callers that overwrite
// every element (e.g. the MatMul transpose scratch).
func (p *Pool) GetSliceRaw(n int) []float64 {
	s, _ := p.getSlice(n)
	return s
}

// getSlice takes a slab of length n from the free lists, or makes one and
// reports it fresh.
func (p *Pool) getSlice(n int) ([]float64, bool) {
	if n == 0 {
		return nil, true
	}
	c := slabClass(n)
	p.mu.Lock()
	p.borrows++
	if slabs := p.classes[c]; len(slabs) > 0 {
		s := slabs[len(slabs)-1]
		p.classes[c] = slabs[:len(slabs)-1]
		p.reuses++
		p.mu.Unlock()
		return s[:n], false
	}
	p.mu.Unlock()
	return make([]float64, n, c), true
}

// PutSlice parks a slab for reuse. Only slabs with power-of-two capacity
// (i.e. ones GetSlice handed out) re-enter the pool; anything else is left
// to the garbage collector. The caller must not use s afterwards.
func (p *Pool) PutSlice(s []float64) {
	c := cap(s)
	if c < minSlabClass || c&(c-1) != 0 {
		return
	}
	s = s[:0]
	p.mu.Lock()
	if len(p.classes[c]) < p.perClass {
		p.classes[c] = append(p.classes[c], s)
	}
	p.mu.Unlock()
}

// Borrow returns a zeroed tensor of the given shape backed by pooled
// memory. It does not participate in differentiation.
func (p *Pool) Borrow(shape ...int) *Tensor {
	return p.borrow(shape, true)
}

// BorrowRaw is Borrow without the zeroing, for callers that overwrite every
// element (the fused kernels and most elementwise inference ops).
func (p *Pool) BorrowRaw(shape ...int) *Tensor {
	return p.borrow(shape, false)
}

// borrow takes the tensor header and the data slab from the free lists in
// one critical section. A slab freshly allocated from the heap is already
// zero, so the clear only runs for reused slabs on the zeroing path.
func (p *Pool) borrow(shape []int, zero bool) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	var (
		t     *Tensor
		s     []float64
		fresh bool
	)
	p.mu.Lock()
	if l := len(p.tfree); l > 0 {
		t = p.tfree[l-1]
		p.tfree[l-1] = nil
		p.tfree = p.tfree[:l-1]
	}
	p.borrows++
	if n > 0 {
		c := slabClass(n)
		if slabs := p.classes[c]; len(slabs) > 0 {
			s = slabs[len(slabs)-1][:n]
			p.classes[c] = slabs[:len(slabs)-1]
			p.reuses++
		}
	}
	p.mu.Unlock()
	if s == nil && n > 0 {
		s = make([]float64, n, slabClass(n))
		fresh = true
	}
	if zero && !fresh {
		clear(s)
	}
	if t == nil {
		t = &Tensor{}
	}
	t.Shape = append(t.Shape[:0], shape...)
	t.Data = s
	t.arenaIdx = 0
	return t
}

// Release returns tensors' backing slabs — and their headers — to the pool.
// The caller must not use a tensor after releasing it (the header may be
// handed out again by the next Borrow). Nil entries and already-released
// tensors are skipped.
func (p *Pool) Release(ts ...*Tensor) {
	for _, t := range ts {
		if t == nil || t.arenaIdx == releasedIdx {
			continue
		}
		p.PutSlice(t.Data)
		t.Data = nil
		t.arenaIdx = releasedIdx
		t.Grad, t.parents, t.backward = nil, nil, nil
		p.mu.Lock()
		if len(p.tfree) < maxFreeTensors {
			p.tfree = append(p.tfree, t)
		}
		p.mu.Unlock()
	}
}

// releasedIdx marks a tensor header as parked in (or dropped by) the header
// free list, guarding against double release.
const releasedIdx = -1

// scratch backs package-internal kernel temporaries (the MatMul transposed
// copy of B). It is shared by all goroutines; Pool is thread-safe.
var scratch = NewPool()
