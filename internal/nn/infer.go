package nn

// Ops abstracts the forward tensor operations of the training path, with
// two implementations:
//
//   - TrainOps delegates to the package-level autodiff ops: outputs are
//     heap-allocated and carry the backward tape when inputs require grad.
//   - TrainArena runs the same ops over pooled slabs that a minibatch
//     worker reuses from step to step (train_arena.go).
//
// Frozen-model inference does not go through Ops: it runs the fused
// kernels of an Infer (fused.go), which compute the bits of the TrainOps
// chain on frozen parameters — the reference every fused kernel is tested
// against.
type Ops interface {
	MatMul(a, b *Tensor) *Tensor
	Add(a, b *Tensor) *Tensor
	AddRowVector(a, v *Tensor) *Tensor
	Mul(a, b *Tensor) *Tensor
	Scale(a *Tensor, c float64) *Tensor
	ReLU(a *Tensor) *Tensor
	SoftmaxRows(a *Tensor) *Tensor
	Transpose(a *Tensor) *Tensor
	MeanRows(a *Tensor) *Tensor
	Gather(table *Tensor, indices []int) *Tensor
	ScatterMean(src *Tensor, dst []int, dstRows int) *Tensor
	Concat(ts ...*Tensor) *Tensor
	ConcatRows(ts []*Tensor) *Tensor
	RepeatEachRow(v *Tensor, times int) *Tensor
	TileRows(v *Tensor, times int) *Tensor
	MaxPerGroup(a *Tensor, groups, per int) *Tensor
	LayerNorm(x, gamma, beta *Tensor, eps float64) *Tensor
	// Zeros returns a zero tensor outside differentiation.
	Zeros(shape ...int) *Tensor
}

// TrainOps implements Ops with the package-level autodiff operations.
type TrainOps struct{}

// MatMul implements Ops.
func (TrainOps) MatMul(a, b *Tensor) *Tensor { return MatMul(a, b) }

// Add implements Ops.
func (TrainOps) Add(a, b *Tensor) *Tensor { return Add(a, b) }

// AddRowVector implements Ops.
func (TrainOps) AddRowVector(a, v *Tensor) *Tensor { return AddRowVector(a, v) }

// Mul implements Ops.
func (TrainOps) Mul(a, b *Tensor) *Tensor { return Mul(a, b) }

// Scale implements Ops.
func (TrainOps) Scale(a *Tensor, c float64) *Tensor { return Scale(a, c) }

// ReLU implements Ops.
func (TrainOps) ReLU(a *Tensor) *Tensor { return ReLU(a) }

// SoftmaxRows implements Ops.
func (TrainOps) SoftmaxRows(a *Tensor) *Tensor { return SoftmaxRows(a) }

// Transpose implements Ops.
func (TrainOps) Transpose(a *Tensor) *Tensor { return Transpose(a) }

// MeanRows implements Ops.
func (TrainOps) MeanRows(a *Tensor) *Tensor { return MeanRows(a) }

// Gather implements Ops.
func (TrainOps) Gather(table *Tensor, indices []int) *Tensor { return Gather(table, indices) }

// ScatterMean implements Ops.
func (TrainOps) ScatterMean(src *Tensor, dst []int, dstRows int) *Tensor {
	return ScatterMean(src, dst, dstRows)
}

// Concat implements Ops.
func (TrainOps) Concat(ts ...*Tensor) *Tensor { return Concat(ts...) }

// ConcatRows implements Ops.
func (TrainOps) ConcatRows(ts []*Tensor) *Tensor { return ConcatRows(ts) }

// RepeatEachRow implements Ops.
func (TrainOps) RepeatEachRow(v *Tensor, times int) *Tensor { return RepeatEachRow(v, times) }

// TileRows implements Ops.
func (TrainOps) TileRows(v *Tensor, times int) *Tensor { return TileRows(v, times) }

// MaxPerGroup implements Ops.
func (TrainOps) MaxPerGroup(a *Tensor, groups, per int) *Tensor { return MaxPerGroup(a, groups, per) }

// LayerNorm implements Ops via the autodiff layer-norm (layers.go).
func (TrainOps) LayerNorm(x, gamma, beta *Tensor, eps float64) *Tensor {
	return layerNormTrain(x, gamma, beta, eps)
}

// Zeros implements Ops.
func (TrainOps) Zeros(shape ...int) *Tensor { return New(shape...) }

// Infer is the inference context of a frozen model: the fused kernels
// (fused.go) over pooled, arena-tracked tensors. Every output tensor is
// borrowed from the pool and registered in the arena; Close releases
// everything still registered, so steady-state inference is
// allocation-free. An Infer is owned by one goroutine; distinct Infers may
// share a Pool.
type Infer struct {
	pool     *Pool
	borrowed []*Tensor
	// cache is a per-Infer free list indexed by slab class exponent
	// (capacity 32<<e). Recycle parks dead tensors here and alloc pops them
	// without touching the shared pool's mutex; Close drains the cache back
	// to the pool. Since an Infer is single-goroutine, no locking is needed,
	// which removes the pool lock from the per-op hot path.
	cache [inferCacheClasses][]*Tensor
	prof  inferCounters
	// ScatterMeanInto's bucket scratch, held from first use to Close;
	// scatterCounts is all zero between calls.
	scatterSums, scatterCounts []float64
}

// inferCacheClasses bounds the local size classes an Infer caches; class
// index e covers slab capacity 32<<e, so the largest cached slab is 4M
// elements. Bigger tensors go straight back to the shared pool.
const inferCacheClasses = 18

// cacheClass returns the local-cache index whose slab capacity (32<<e)
// holds n elements, or -1 if n is too large to cache locally.
func cacheClass(n int) int {
	c, e := minSlabClass, 0
	for c < n {
		c <<= 1
		e++
	}
	if e >= inferCacheClasses {
		return -1
	}
	return e
}

// NewInfer creates an inference context over the pool.
func NewInfer(p *Pool) *Infer {
	return &Infer{pool: p}
}

// alloc borrows a zeroed tensor and registers it in the arena.
func (in *Infer) alloc(shape ...int) *Tensor {
	return in.borrowLocal(shape, true)
}

// allocRaw borrows an unzeroed tensor (the caller overwrites every element)
// and registers it in the arena.
func (in *Infer) allocRaw(shape ...int) *Tensor {
	return in.borrowLocal(shape, false)
}

// borrowLocal satisfies an allocation from the per-Infer cache when a parked
// tensor of the right class exists, falling back to the shared pool.
func (in *Infer) borrowLocal(shape []int, zero bool) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n > 0 {
		if e := cacheClass(n); e >= 0 {
			if l := len(in.cache[e]); l > 0 {
				t := in.cache[e][l-1]
				in.cache[e][l-1] = nil
				in.cache[e] = in.cache[e][:l-1]
				t.Shape = append(t.Shape[:0], shape...)
				t.Data = t.Data[:n]
				if zero {
					clear(t.Data)
				}
				return in.register(t)
			}
		}
	}
	if zero {
		return in.register(in.pool.Borrow(shape...))
	}
	return in.register(in.pool.BorrowRaw(shape...))
}

// park moves a dead arena tensor into the local cache; slabs too large (or
// not pool-classed) go back to the shared pool instead.
func (in *Infer) park(t *Tensor) {
	if c := cap(t.Data); c >= minSlabClass && c&(c-1) == 0 {
		if e := cacheClass(c); e >= 0 {
			t.arenaIdx = releasedIdx
			t.Grad, t.parents, t.backward = nil, nil, nil
			in.cache[e] = append(in.cache[e], t)
			return
		}
	}
	in.pool.Release(t)
}

func (in *Infer) register(t *Tensor) *Tensor {
	t.arenaIdx = len(in.borrowed)
	in.borrowed = append(in.borrowed, t)
	return t
}

// Recycle declares arena tensors dead mid-pass, so a long forward reuses
// their memory before Close. Tensors not allocated by this Infer
// (parameters, inputs) are ignored.
func (in *Infer) Recycle(ts ...*Tensor) {
	for _, t := range ts {
		if t == nil {
			continue
		}
		if i := t.arenaIdx; i >= 0 && i < len(in.borrowed) && in.borrowed[i] == t {
			in.borrowed[i] = nil
			in.park(t)
		}
	}
}

// Close releases every tensor still registered in the arena, drains the
// local cache back to the shared pool and flushes the kernel counters. The
// Infer can be reused for another pass.
func (in *Infer) Close() {
	for _, t := range in.borrowed {
		if t != nil {
			in.pool.Release(t)
		}
	}
	in.borrowed = in.borrowed[:0]
	for e := range in.cache {
		for i, t := range in.cache[e] {
			in.cache[e][i] = nil
			t.arenaIdx = 0
			in.pool.Release(t)
		}
		in.cache[e] = in.cache[e][:0]
	}
	in.releaseScatterScratch()
	in.pool.addProfile(&in.prof)
}

// Gather copies one table row per index.
func (in *Infer) Gather(table *Tensor, indices []int) *Tensor {
	if len(table.Shape) != 2 {
		panic("nn: Gather requires a 2D table")
	}
	cols := table.Shape[1]
	out := in.allocRaw(len(indices), cols)
	gatherForward(out.Data, table.Data, indices, table.Shape[0], cols)
	return out
}

// ConcatRows stacks the tensors' rows.
func (in *Infer) ConcatRows(ts []*Tensor) *Tensor {
	rows, cols := checkConcatRows(ts)
	out := in.allocRaw(rows, cols)
	concatRowsForward(out.Data, ts)
	return out
}

// MaxPerGroup keeps the largest of each group of per consecutive values.
func (in *Infer) MaxPerGroup(a *Tensor, groups, per int) *Tensor {
	checkMaxPerGroup(a, groups, per)
	out := in.allocRaw(groups, 1)
	maxPerGroupForward(out.Data, nil, a.Data, groups, per)
	return out
}

// Zeros borrows a zero tensor.
func (in *Infer) Zeros(shape ...int) *Tensor { return in.alloc(shape...) }
