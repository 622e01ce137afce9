package nn

import "math"

// resultAllocator abstracts where an autodiff op's output tensor — and any
// scratch memory its backward closure captures — lives. The heap allocator
// backs the package-level ops; TrainArena (train_arena.go) allocates from a
// Pool so whole training passes recycle their memory. Both run the exact
// same forward kernels and backward closures, so gradients are bit-identical
// through either allocator.
type resultAllocator interface {
	// newResult constructs an op output over the given inputs, tracking
	// gradients when some input does (see the package-level newResult).
	newResult(shape []int, inputs ...*Tensor) *Tensor
	// scratchFloats returns a zeroed float slice whose lifetime must cover
	// the backward pass (heap-allocated, or arena-held until Close).
	scratchFloats(n int) []float64
}

// heapAlloc is the resultAllocator of the package-level autodiff ops.
type heapAlloc struct{}

func (heapAlloc) newResult(shape []int, inputs ...*Tensor) *Tensor {
	return newResult(shape, inputs...)
}

func (heapAlloc) scratchFloats(n int) []float64 { return make([]float64, n) }

// MatMul returns a × b for 2D tensors of shapes (m,k) and (k,n). The
// forward pass runs the blocked, vectorized, worker-pool-parallel kernel in
// matmul.go; results are bit-identical for any worker count.
func MatMul(a, b *Tensor) *Tensor { return matMulVia(heapAlloc{}, a, b) }

func matMulVia(al resultAllocator, a, b *Tensor) *Tensor {
	m, k, n := checkMatMul(a, b)
	out := al.newResult([]int{m, n}, a, b)
	// dA reads B transposed, which the forward builds anyway: hold that
	// copy for the backward instead of transposing twice.
	var bt []float64
	ldb := btStride(k, n)
	if a.requiresGrad {
		bt = al.scratchFloats(n * ldb)
	}
	matmulForwardBT(out.Data, a.Data, b.Data, bt, m, k, n)
	if out.requiresGrad {
		out.backward = func() {
			// dA = dOut × Bᵀ ; dB = Aᵀ × dOut (matmul_grad.go)
			if a.requiresGrad {
				matmulGradA(a.Grad, out.Grad, b.Data, bt, m, k, n, ldb)
			}
			if b.requiresGrad {
				matmulGradB(b.Grad, a.Data, out.Grad, m, k, n)
			}
		}
	}
	return out
}

// Add returns a + b elementwise. Shapes must match exactly.
func Add(a, b *Tensor) *Tensor { return addVia(heapAlloc{}, a, b) }

func addVia(al resultAllocator, a, b *Tensor) *Tensor {
	checkSameShape("Add", a, b)
	out := al.newResult(a.Shape, a, b)
	addForward(out.Data, a.Data, b.Data)
	if out.requiresGrad {
		out.backward = func() {
			if a.requiresGrad {
				addInto(a.Grad, out.Grad)
			}
			if b.requiresGrad {
				addInto(b.Grad, out.Grad)
			}
		}
	}
	return out
}

// AddRowVector adds a length-n vector v (shape (n) or (1,n)) to every row of
// a 2D tensor a of shape (m,n). This is the standard bias broadcast.
func AddRowVector(a, v *Tensor) *Tensor { return addRowVectorVia(heapAlloc{}, a, v) }

func addRowVectorVia(al resultAllocator, a, v *Tensor) *Tensor {
	m, n := checkRowVector(a, v)
	out := al.newResult(a.Shape, a, v)
	addRowVectorForward(out.Data, a.Data, v.Data, m, n)
	if out.requiresGrad {
		out.backward = func() {
			if a.requiresGrad {
				addInto(a.Grad, out.Grad)
			}
			if v.requiresGrad {
				for i := 0; i < m; i++ {
					addInto(v.Grad[:n], out.Grad[i*n:(i+1)*n])
				}
			}
		}
	}
	return out
}

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor {
	return Add(a, Scale(b, -1))
}

// Mul returns a * b elementwise (Hadamard product).
func Mul(a, b *Tensor) *Tensor { return mulVia(heapAlloc{}, a, b) }

func mulVia(al resultAllocator, a, b *Tensor) *Tensor {
	checkSameShape("Mul", a, b)
	out := al.newResult(a.Shape, a, b)
	mulForward(out.Data, a.Data, b.Data)
	if out.requiresGrad {
		out.backward = func() {
			if a.requiresGrad {
				for i := range out.Grad {
					a.Grad[i] += float64(out.Grad[i] * b.Data[i])
				}
			}
			if b.requiresGrad {
				for i := range out.Grad {
					b.Grad[i] += float64(out.Grad[i] * a.Data[i])
				}
			}
		}
	}
	return out
}

// Scale returns a * c for scalar c.
func Scale(a *Tensor, c float64) *Tensor { return scaleVia(heapAlloc{}, a, c) }

func scaleVia(al resultAllocator, a *Tensor, c float64) *Tensor {
	out := al.newResult(a.Shape, a)
	scaleForward(out.Data, a.Data, c)
	if out.requiresGrad {
		out.backward = func() {
			for i := range out.Grad {
				a.Grad[i] += float64(out.Grad[i] * c)
			}
		}
	}
	return out
}

// ReLU returns max(x, 0) elementwise.
func ReLU(a *Tensor) *Tensor { return reluVia(heapAlloc{}, a) }

func reluVia(al resultAllocator, a *Tensor) *Tensor {
	out := al.newResult(a.Shape, a)
	reluForward(out.Data, a.Data)
	if out.requiresGrad {
		out.backward = func() {
			for i := range out.Grad {
				if a.Data[i] > 0 {
					a.Grad[i] += out.Grad[i]
				}
			}
		}
	}
	return out
}

// Sigmoid returns 1/(1+e^-x) elementwise.
func Sigmoid(a *Tensor) *Tensor {
	out := newResult(a.Shape, a)
	for i, v := range a.Data {
		out.Data[i] = 1 / (1 + math.Exp(-v))
	}
	if out.requiresGrad {
		out.backward = func() {
			for i := range out.Grad {
				s := out.Data[i]
				a.Grad[i] += float64(out.Grad[i] * s * (1 - s))
			}
		}
	}
	return out
}

// Tanh returns tanh(x) elementwise.
func Tanh(a *Tensor) *Tensor {
	out := newResult(a.Shape, a)
	for i, v := range a.Data {
		out.Data[i] = math.Tanh(v)
	}
	if out.requiresGrad {
		out.backward = func() {
			for i := range out.Grad {
				y := out.Data[i]
				a.Grad[i] += float64(out.Grad[i] * (1 - float64(y*y)))
			}
		}
	}
	return out
}

// SoftmaxRows applies softmax independently to each row of a 2D tensor.
func SoftmaxRows(a *Tensor) *Tensor { return softmaxRowsVia(heapAlloc{}, a) }

func softmaxRowsVia(al resultAllocator, a *Tensor) *Tensor {
	if len(a.Shape) != 2 {
		panic("nn: SoftmaxRows requires a 2D tensor")
	}
	m, n := a.Shape[0], a.Shape[1]
	out := al.newResult(a.Shape, a)
	softmaxRowsForward(out.Data, a.Data, m, n)
	if out.requiresGrad {
		out.backward = func() {
			for i := 0; i < m; i++ {
				orow := out.Data[i*n : (i+1)*n]
				grow := out.Grad[i*n : (i+1)*n]
				var dot float64
				for j := 0; j < n; j++ {
					dot += float64(orow[j] * grow[j])
				}
				for j := 0; j < n; j++ {
					a.Grad[i*n+j] += float64(orow[j] * (grow[j] - dot))
				}
			}
		}
	}
	return out
}

// Concat concatenates 2D tensors along dimension 1 (columns). All inputs
// must have the same number of rows.
func Concat(ts ...*Tensor) *Tensor { return concatVia(heapAlloc{}, ts...) }

func concatVia(al resultAllocator, ts ...*Tensor) *Tensor {
	rows, cols := checkConcat(ts)
	out := al.newResult([]int{rows, cols}, ts...)
	concatForward(out.Data, ts, rows, cols)
	if out.requiresGrad {
		out.backward = func() {
			off := 0
			for _, t := range ts {
				c := t.Shape[1]
				if t.requiresGrad {
					for i := 0; i < rows; i++ {
						src := out.Grad[i*cols+off : i*cols+off+c]
						dst := t.Grad[i*c : (i+1)*c]
						for j := range src {
							dst[j] += src[j]
						}
					}
				}
				off += c
			}
		}
	}
	return out
}

// ConcatRows stacks 2D tensors along dimension 0 (rows). All inputs must
// have the same number of columns.
func ConcatRows(ts []*Tensor) *Tensor { return concatRowsVia(heapAlloc{}, ts) }

func concatRowsVia(al resultAllocator, ts []*Tensor) *Tensor {
	rows, cols := checkConcatRows(ts)
	out := al.newResult([]int{rows, cols}, ts...)
	concatRowsForward(out.Data, ts)
	if out.requiresGrad {
		out.backward = func() {
			off := 0
			for _, t := range ts {
				if t.requiresGrad {
					src := out.Grad[off : off+len(t.Data)]
					for j := range src {
						t.Grad[j] += src[j]
					}
				}
				off += len(t.Data)
			}
		}
	}
	return out
}

// RepeatRow tiles a (1, n) tensor into (rows, n); gradients sum over the
// copies.
func RepeatRow(v *Tensor, rows int) *Tensor {
	if len(v.Shape) != 2 || v.Shape[0] != 1 {
		panic("nn: RepeatRow requires a (1, n) tensor")
	}
	n := v.Shape[1]
	out := newResult([]int{rows, n}, v)
	for i := 0; i < rows; i++ {
		copy(out.Data[i*n:(i+1)*n], v.Data)
	}
	if out.requiresGrad {
		out.backward = func() {
			for i := 0; i < rows; i++ {
				row := out.Grad[i*n : (i+1)*n]
				for j := range row {
					v.Grad[j] += row[j]
				}
			}
		}
	}
	return out
}

// RepeatEachRow repeats every row of a 2D tensor `times` consecutive times:
// rows (a,b) with times=2 become (a,a,b,b).
func RepeatEachRow(v *Tensor, times int) *Tensor { return repeatEachRowVia(heapAlloc{}, v, times) }

func repeatEachRowVia(al resultAllocator, v *Tensor, times int) *Tensor {
	if len(v.Shape) != 2 {
		panic("nn: RepeatEachRow requires a 2D tensor")
	}
	m, n := v.Shape[0], v.Shape[1]
	out := al.newResult([]int{m * times, n}, v)
	repeatEachRowForward(out.Data, v.Data, m, n, times)
	if out.requiresGrad {
		out.backward = func() {
			for i := 0; i < m; i++ {
				dst := v.Grad[i*n : (i+1)*n]
				for r := 0; r < times; r++ {
					row := out.Grad[(i*times+r)*n : (i*times+r+1)*n]
					for j := range row {
						dst[j] += row[j]
					}
				}
			}
		}
	}
	return out
}

// TileRows repeats the whole 2D tensor `times` times along dimension 0:
// rows (a,b) with times=2 become (a,b,a,b).
func TileRows(v *Tensor, times int) *Tensor { return tileRowsVia(heapAlloc{}, v, times) }

func tileRowsVia(al resultAllocator, v *Tensor, times int) *Tensor {
	if len(v.Shape) != 2 {
		panic("nn: TileRows requires a 2D tensor")
	}
	m, n := v.Shape[0], v.Shape[1]
	out := al.newResult([]int{m * times, n}, v)
	tileRowsForward(out.Data, v.Data, m, n, times)
	if out.requiresGrad {
		out.backward = func() {
			for r := 0; r < times; r++ {
				blk := out.Grad[r*m*n : (r+1)*m*n]
				for j := range blk {
					v.Grad[j] += blk[j]
				}
			}
		}
	}
	return out
}

// MaxPerGroup reduces a (groups*per, 1) tensor to (groups, 1) by taking the
// maximum within each consecutive group of `per` rows. Gradient flows to the
// argmax row of each group.
func MaxPerGroup(a *Tensor, groups, per int) *Tensor {
	return maxPerGroupVia(heapAlloc{}, a, groups, per)
}

func maxPerGroupVia(al resultAllocator, a *Tensor, groups, per int) *Tensor {
	checkMaxPerGroup(a, groups, per)
	out := al.newResult([]int{groups, 1}, a)
	argmax := make([]int, groups)
	maxPerGroupForward(out.Data, argmax, a.Data, groups, per)
	if out.requiresGrad {
		out.backward = func() {
			for g := 0; g < groups; g++ {
				a.Grad[argmax[g]] += out.Grad[g]
			}
		}
	}
	return out
}

// Gather selects rows of a 2D table by index, producing one output row per
// index. It is the embedding-lookup primitive.
func Gather(table *Tensor, indices []int) *Tensor { return gatherVia(heapAlloc{}, table, indices) }

func gatherVia(al resultAllocator, table *Tensor, indices []int) *Tensor {
	if len(table.Shape) != 2 {
		panic("nn: Gather requires a 2D table")
	}
	rows, cols := len(indices), table.Shape[1]
	out := al.newResult([]int{rows, cols}, table)
	gatherForward(out.Data, table.Data, indices, table.Shape[0], cols)
	if out.requiresGrad {
		idxCopy := append([]int(nil), indices...)
		out.backward = func() {
			for i, idx := range idxCopy {
				src := out.Grad[i*cols : (i+1)*cols]
				dst := table.Grad[idx*cols : (idx+1)*cols]
				for j := range src {
					dst[j] += src[j]
				}
			}
		}
	}
	return out
}

// ScatterMean aggregates src rows into dstRows buckets: output row d is the
// mean of all src rows i with dst[i] == d. Buckets that receive no rows stay
// zero. This is the message-aggregation primitive of the GNN.
func ScatterMean(src *Tensor, dst []int, dstRows int) *Tensor {
	return scatterMeanVia(heapAlloc{}, src, dst, dstRows)
}

func scatterMeanVia(al resultAllocator, src *Tensor, dst []int, dstRows int) *Tensor {
	if len(src.Shape) != 2 || len(dst) != src.Shape[0] {
		panic("nn: ScatterMean shape mismatch")
	}
	cols := src.Shape[1]
	out := al.newResult([]int{dstRows, cols}, src)
	counts := al.scratchFloats(dstRows)
	scatterMeanForward(out.Data, counts, src.Data, dst, cols)
	if out.requiresGrad {
		dstCopy := append([]int(nil), dst...)
		out.backward = func() {
			for i, d := range dstCopy {
				inv := 1.0
				if counts[d] > 1 {
					inv = 1 / counts[d]
				}
				grow := out.Grad[d*cols : (d+1)*cols]
				sgrow := src.Grad[i*cols : (i+1)*cols]
				for j := range grow {
					sgrow[j] += float64(grow[j] * inv)
				}
			}
		}
	}
	return out
}

// SelectRows picks the given rows of a 2D tensor into a new tensor, with
// gradient routed back to the selected rows.
func SelectRows(a *Tensor, indices []int) *Tensor {
	return Gather(a, indices)
}

// MeanRows returns a (1,n) tensor holding the column means of a 2D tensor.
func MeanRows(a *Tensor) *Tensor { return meanRowsVia(heapAlloc{}, a) }

func meanRowsVia(al resultAllocator, a *Tensor) *Tensor {
	if len(a.Shape) != 2 {
		panic("nn: MeanRows requires a 2D tensor")
	}
	m, n := a.Shape[0], a.Shape[1]
	out := al.newResult([]int{1, n}, a)
	if m == 0 {
		return out
	}
	meanRowsForward(out.Data, a.Data, m, n)
	inv := 1 / float64(m)
	if out.requiresGrad {
		out.backward = func() {
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					a.Grad[i*n+j] += float64(out.Grad[j] * inv)
				}
			}
		}
	}
	return out
}

// Sum returns the scalar sum of all elements as a (1) tensor.
func Sum(a *Tensor) *Tensor {
	out := newResult([]int{1}, a)
	for _, v := range a.Data {
		out.Data[0] += v
	}
	if out.requiresGrad {
		out.backward = func() {
			g := out.Grad[0]
			for i := range a.Grad {
				a.Grad[i] += g
			}
		}
	}
	return out
}

// Mean returns the scalar mean of all elements as a (1) tensor.
func Mean(a *Tensor) *Tensor {
	n := a.Size()
	if n == 0 {
		return newResult([]int{1}, a)
	}
	return Scale(Sum(a), 1/float64(n))
}

// CrossEntropyRows computes mean softmax cross-entropy: row i of logits is
// scored against integer class labels[i].
func CrossEntropyRows(logits *Tensor, labels []int) *Tensor {
	if len(logits.Shape) != 2 || len(labels) != logits.Shape[0] {
		panic("nn: CrossEntropyRows shape mismatch")
	}
	m, n := logits.Shape[0], logits.Shape[1]
	out := newResult([]int{1}, logits)
	probs := make([]float64, m*n)
	for i := 0; i < m; i++ {
		row := logits.Data[i*n : (i+1)*n]
		maxv := math.Inf(-1)
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(v - maxv)
			probs[i*n+j] = e
			sum += e
		}
		for j := range row {
			probs[i*n+j] /= sum
		}
		l := labels[i]
		if l < 0 || l >= n {
			panic("nn: CrossEntropyRows label out of range")
		}
		out.Data[0] -= math.Log(probs[i*n+l] + 1e-12)
	}
	out.Data[0] /= float64(m)
	if out.requiresGrad {
		labelCopy := append([]int(nil), labels...)
		out.backward = func() {
			g := out.Grad[0] / float64(m)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					delta := probs[i*n+j]
					if j == labelCopy[i] {
						delta -= 1
					}
					logits.Grad[i*n+j] += float64(g * delta)
				}
			}
		}
	}
	return out
}

// BCEWithLogits computes the mean binary cross-entropy between logits and
// 0/1 targets, with optional per-element weights (nil for uniform). The
// formulation max(x,0) - x*y + log(1+exp(-|x|)) is numerically stable.
func BCEWithLogits(logits *Tensor, targets []float64, weights []float64) *Tensor {
	return bceWithLogitsVia(heapAlloc{}, logits, targets, weights)
}

func bceWithLogitsVia(al resultAllocator, logits *Tensor, targets, weights []float64) *Tensor {
	if len(targets) != logits.Size() {
		panic("nn: BCEWithLogits target length mismatch")
	}
	if weights != nil && len(weights) != len(targets) {
		panic("nn: BCEWithLogits weight length mismatch")
	}
	out := al.newResult([]int{1}, logits)
	var totalW float64
	for i, x := range logits.Data {
		y := targets[i]
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		loss := math.Max(x, 0) - float64(x*y) + math.Log1p(math.Exp(-math.Abs(x)))
		out.Data[0] += float64(w * loss)
		totalW += w
	}
	if totalW > 0 {
		out.Data[0] /= totalW
	}
	if out.requiresGrad {
		out.backward = func() {
			if totalW == 0 {
				return
			}
			g := out.Grad[0] / totalW
			for i, x := range logits.Data {
				y := targets[i]
				w := 1.0
				if weights != nil {
					w = weights[i]
				}
				s := 1 / (1 + math.Exp(-x))
				logits.Grad[i] += float64(g * w * (s - y))
			}
		}
	}
	return out
}
