package nn

import (
	"math"
	"math/bits"
)

// TrainArena is a pooled Ops implementation for training: every op output —
// data and gradient storage alike — and every tensor header is lent by the
// arena, and one Close call after the backward pass takes the whole tape's
// memory back for the next example. It is the training-side counterpart of
// Infer: both run the same forward kernels, and TrainArena additionally
// attaches the exact backward closures of the package-level autodiff ops
// (ops.go), so losses and gradients are bit-identical to the heap path.
//
// The arena is a bump allocator over per-size-class slab lists: a pass
// takes the next idle slab of its class or makes one, and Close only resets
// the per-class cursors, so release is O(1) and nothing is locked. Slabs are
// handed out without zeroing, except for the buffers an op accumulates
// into: gradients, the outputs of ScatterMean, MeanRows, BCEWithLogits and
// Zeros, and the ScatterMean counts. Every other op writes each element of
// its output.
//
// Unlike an Infer, the arena frees nothing mid-pass — the tape may need any
// intermediate during Backward — and Close must not be called until the
// caller is done with every tensor of the pass, including the loss. A TrainArena is owned
// by one goroutine; arenas of concurrent workers share only the read-only
// WeightCopies.
type TrainArena struct {
	// classes[e] holds every slab of capacity minSlabClass<<e the arena
	// has made; the first used[e] are lent to the current pass.
	classes [arenaClasses][][]float64
	used    [arenaClasses]int
	// hdrs are the tensor headers the arena has made; the first nhdr are
	// the current pass's tensors.
	hdrs []*Tensor
	nhdr int
	// ints is the chunk scratchInts carves; the pass has used its first
	// ioff ints.
	ints []int
	ioff int

	weights         *WeightCopies
	borrows, reuses int64

	// nanOnRelease is a test hook: Close fills every released slab with
	// NaN, and fresh unzeroed slabs start as NaN, so an op that reads
	// memory it did not write poisons the loss and gradients.
	nanOnRelease bool
}

// arenaClasses covers every slab class an int length can need.
const arenaClasses = 64

// arenaClass returns the class index e whose capacity minSlabClass<<e is
// slabClass(n).
func arenaClass(n int) int {
	if n <= minSlabClass {
		return 0
	}
	return bits.Len(uint(n-1)) - bits.Len(uint(minSlabClass-1))
}

// NewTrainArena creates an empty training arena.
func NewTrainArena() *TrainArena { return &TrainArena{} }

// UseWeights makes Linear layers read their weights' transposed copies from
// wc instead of transposing per call. The caller rebuilds wc after every
// weight update (WeightCopies.Refresh) before the next pass.
func (ta *TrainArena) UseWeights(wc *WeightCopies) { ta.weights = wc }

// PoolStats reports the arena's slab traffic: Borrows counts slab requests,
// Reuses those served by a slab an earlier pass made, and Idle the slabs
// not lent to the current pass.
func (ta *TrainArena) PoolStats() PoolStats {
	idle := 0
	for e := range ta.classes {
		idle += len(ta.classes[e]) - ta.used[e]
	}
	return PoolStats{Borrows: ta.borrows, Reuses: ta.reuses, Idle: idle}
}

// slab lends a slice of length n until Close, zeroed when zero is set.
func (ta *TrainArena) slab(n int, zero bool) []float64 {
	if n == 0 {
		return nil
	}
	e := arenaClass(n)
	ta.borrows++
	if u := ta.used[e]; u < len(ta.classes[e]) {
		ta.used[e]++
		ta.reuses++
		s := ta.classes[e][u][:n]
		if zero {
			clear(s)
		}
		return s
	}
	s := make([]float64, n, minSlabClass<<e)
	if ta.nanOnRelease && !zero {
		fillNaN(s)
	}
	ta.classes[e] = append(ta.classes[e], s)
	ta.used[e]++
	return s
}

// header lends a tensor header of the given shape until Close, its tape
// fields cleared. The shape and inputs are copied into storage the header
// keeps, so neither slice escapes the caller.
func (ta *TrainArena) header(shape []int, data []float64) *Tensor {
	if ta.nhdr == len(ta.hdrs) {
		ta.hdrs = append(ta.hdrs, &Tensor{})
	}
	t := ta.hdrs[ta.nhdr]
	ta.nhdr++
	t.Shape = append(t.Shape[:0], shape...)
	t.Data, t.Grad = data, nil
	t.requiresGrad = false
	t.parents = t.parents[:0]
	t.backward = nil
	return t
}

// newResult constructs an op output over the given inputs with zeroed
// data; when some input differentiates, gradient storage (always zeroed)
// and the input list are attached. A nil arena allocates on the heap: the
// package-level ops are the nil arena's ops.
func (ta *TrainArena) newResult(shape []int, inputs ...*Tensor) *Tensor {
	if ta == nil {
		return newResult(shape, inputs...)
	}
	return ta.result(shape, true, inputs)
}

// newResultRaw is newResult with unzeroed data, for ops that write every
// output element. The heap path zeroes anyway.
func (ta *TrainArena) newResultRaw(shape []int, inputs ...*Tensor) *Tensor {
	if ta == nil {
		return newResult(shape, inputs...)
	}
	return ta.result(shape, false, inputs)
}

func (ta *TrainArena) result(shape []int, zero bool, inputs []*Tensor) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	out := ta.header(shape, ta.slab(n, zero))
	for _, in := range inputs {
		if in != nil && in.requiresGrad {
			out.requiresGrad = true
			out.Grad = ta.slab(n, true)
			out.parents = append(out.parents, inputs...)
			break
		}
	}
	return out
}

// scratchFloats returns a zeroed float slice whose lifetime covers the
// backward pass: heap-allocated, or held by the arena until Close.
func (ta *TrainArena) scratchFloats(n int) []float64 {
	if ta == nil {
		return make([]float64, n)
	}
	return ta.slab(n, true)
}

// scratchFloatsRaw is scratchFloats without the zeroing, for callers that
// write every element before reading it.
func (ta *TrainArena) scratchFloatsRaw(n int) []float64 {
	if ta == nil {
		return make([]float64, n)
	}
	return ta.slab(n, false)
}

// scratchInts returns an int slice of length n, unzeroed, whose lifetime
// covers the backward pass: heap-allocated, or carved from the arena's int
// chunk until Close. A pass that outgrows the chunk moves to one twice as
// large (slices already carved keep the old), so warm passes allocate none.
func (ta *TrainArena) scratchInts(n int) []int {
	if ta == nil {
		return make([]int, n)
	}
	if ta.ioff+n > len(ta.ints) {
		ta.ints = make([]int, max(2*len(ta.ints), n, minIntChunk))
		ta.ioff = 0
	}
	s := ta.ints[ta.ioff : ta.ioff+n : ta.ioff+n]
	ta.ioff += n
	return s
}

// minIntChunk is the length of the arena's first int chunk.
const minIntChunk = 4096

// padScratch lends matmulBT the padded copy of a for an (m×k)·(k×n)
// multiply on the zero-padded path, or returns nil: off that path, and on
// the heap, where matmulBT borrows shared scratch instead.
func (ta *TrainArena) padScratch(m, k, n int) []float64 {
	if ta == nil || k == 0 || !padKEligible(k, n) {
		return nil
	}
	return ta.slab(m*btStride(k, n), false)
}

// Close takes back every tensor and slab of the pass in O(1): the
// per-class cursors and the header cursor reset, and the next pass reuses
// the memory. No tensor produced during the pass may be used afterwards.
func (ta *TrainArena) Close() {
	if ta.nanOnRelease {
		for e := range ta.classes {
			for _, s := range ta.classes[e][:ta.used[e]] {
				fillNaN(s[:cap(s)])
			}
		}
	}
	ta.used = [arenaClasses]int{}
	ta.nhdr = 0
	ta.ioff = 0
}

func fillNaN(s []float64) {
	for i := range s {
		s[i] = math.NaN()
	}
}

// WeightCopies holds each registered weight matrix transposed into the
// layout the MatMul kernels read (transposeB: B's columns as rows, padded
// to btStride), so that a Linear layer in a TrainArena pass multiplies
// against it instead of transposing its weight on every call. Entries are
// keyed by the weight's data: a model replica whose parameters alias the
// master's weights finds the master's copies.
//
// The copies are a snapshot. Refresh rebuilds them after every optimizer
// step, while no pass is in flight; between refreshes any number of arenas
// read them concurrently.
type WeightCopies struct {
	byData map[*float64]*weightCopy
}

type weightCopy struct {
	w  *Tensor
	bt []float64
}

// NewWeightCopies registers the 2D weights ws and builds their copies.
// Weights with no elements are skipped.
func NewWeightCopies(ws []*Tensor) *WeightCopies {
	wc := &WeightCopies{byData: make(map[*float64]*weightCopy, len(ws))}
	for _, w := range ws {
		if len(w.Shape) != 2 || len(w.Data) == 0 {
			continue
		}
		k, n := w.Shape[0], w.Shape[1]
		wc.byData[&w.Data[0]] = &weightCopy{w: w, bt: make([]float64, n*btStride(k, n))}
	}
	wc.Refresh()
	return wc
}

// Refresh rebuilds every copy from its weight's current values.
func (wc *WeightCopies) Refresh() {
	for _, c := range wc.byData {
		transposeB(c.bt, c.w.Data, c.w.Shape[0], c.w.Shape[1])
	}
}

// lookup returns w's transposed copy, or nil when w is not registered.
func (wc *WeightCopies) lookup(w *Tensor) []float64 {
	if wc == nil || len(w.Data) == 0 {
		return nil
	}
	c := wc.byData[&w.Data[0]]
	if c == nil || !sameShape(c.w, w) {
		return nil
	}
	return c.bt
}

// Linear records x×w + b as one tape node, the bias added in the matmul
// epilogue, against w's copy in the arena's WeightCopies when it has one.
// Bit-identical, forward and backward, to MatMul followed by AddRowVector.
func (ta *TrainArena) Linear(x, w, b *Tensor) *Tensor {
	return linearVia(ta, x, w, b, ta.weights.lookup(w))
}

// MatMul implements Ops.
func (ta *TrainArena) MatMul(a, b *Tensor) *Tensor { return matMulVia(ta, a, b) }

// Add implements Ops.
func (ta *TrainArena) Add(a, b *Tensor) *Tensor { return addVia(ta, a, b) }

// AddRowVector implements Ops.
func (ta *TrainArena) AddRowVector(a, v *Tensor) *Tensor { return addRowVectorVia(ta, a, v) }

// Mul implements Ops.
func (ta *TrainArena) Mul(a, b *Tensor) *Tensor { return mulVia(ta, a, b) }

// Scale implements Ops.
func (ta *TrainArena) Scale(a *Tensor, c float64) *Tensor { return scaleVia(ta, a, c) }

// ReLU implements Ops.
func (ta *TrainArena) ReLU(a *Tensor) *Tensor { return reluVia(ta, a) }

// SoftmaxRows implements Ops.
func (ta *TrainArena) SoftmaxRows(a *Tensor) *Tensor { return softmaxRowsVia(ta, a) }

// Transpose implements Ops.
func (ta *TrainArena) Transpose(a *Tensor) *Tensor { return transposeVia(ta, a) }

// MeanRows implements Ops.
func (ta *TrainArena) MeanRows(a *Tensor) *Tensor { return meanRowsVia(ta, a) }

// Gather implements Ops.
func (ta *TrainArena) Gather(table *Tensor, indices []int) *Tensor {
	return gatherVia(ta, table, indices)
}

// ScatterMean implements Ops.
func (ta *TrainArena) ScatterMean(src *Tensor, dst []int, dstRows int) *Tensor {
	return scatterMeanVia(ta, src, dst, dstRows)
}

// Concat implements Ops.
func (ta *TrainArena) Concat(ts ...*Tensor) *Tensor { return concatVia(ta, ts...) }

// ConcatRows implements Ops.
func (ta *TrainArena) ConcatRows(ts []*Tensor) *Tensor { return concatRowsVia(ta, ts) }

// RepeatEachRow implements Ops.
func (ta *TrainArena) RepeatEachRow(v *Tensor, times int) *Tensor {
	return repeatEachRowVia(ta, v, times)
}

// TileRows implements Ops.
func (ta *TrainArena) TileRows(v *Tensor, times int) *Tensor { return tileRowsVia(ta, v, times) }

// MaxPerGroup implements Ops.
func (ta *TrainArena) MaxPerGroup(a *Tensor, groups, per int) *Tensor {
	return maxPerGroupVia(ta, a, groups, per)
}

// LayerNorm implements Ops.
func (ta *TrainArena) LayerNorm(x, gamma, beta *Tensor, eps float64) *Tensor {
	return layerNormVia(ta, x, gamma, beta, eps)
}

// Zeros implements Ops.
func (ta *TrainArena) Zeros(shape ...int) *Tensor { return ta.newResult(shape) }

// BCEWithLogits is the arena form of the package-level loss (not part of
// Ops — only training passes need it).
func (ta *TrainArena) BCEWithLogits(logits *Tensor, targets, weights []float64) *Tensor {
	return bceWithLogitsVia(ta, logits, targets, weights)
}
