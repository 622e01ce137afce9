package nn

import (
	"fmt"
	"math"
)

// Every autodiff op is written once, as an xxxVia function over the
// *TrainArena that lends its output, gradient and scratch memory. The
// package-level ops pass a nil arena, which allocates on the heap; a
// TrainArena (train_arena.go) lends pooled memory that one Close takes
// back. Both run the exact same forward kernels and backward closures, so
// gradients are bit-identical through either.
//
// An op whose forward writes every output element asks for raw memory
// (newResultRaw, scratchFloatsRaw); one that accumulates into its output
// asks for zeroed memory. Gradients are always zeroed.

// MatMul returns a × b for 2D tensors of shapes (m,k) and (k,n). The
// forward pass runs the blocked, vectorized, worker-pool-parallel kernel in
// matmul.go; results are bit-identical for any worker count.
func MatMul(a, b *Tensor) *Tensor { return matMulVia(nil, a, b) }

func matMulVia(ta *TrainArena, a, b *Tensor) *Tensor {
	m, k, n := checkMatMul(a, b)
	out := ta.newResultRaw([]int{m, n}, a, b)
	// dA reads B transposed, which the forward builds anyway: hold that
	// copy for the backward instead of transposing twice.
	var bt []float64
	ldb := btStride(k, n)
	if a.requiresGrad {
		bt = ta.scratchFloatsRaw(n * ldb)
	}
	matmulForwardBT(out.Data, a.Data, b.Data, bt, ta.padScratch(m, k, n), m, k, n)
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

// linearVia records x×w + b as one tape node. The multiply runs against
// wt, w as transposeB lays it out (nil transposes w into scratch), with
// the bias added in the matmul epilogue: bitwise MatMul then AddRowVector.
//
// The node's parents are [x, w, b] — the MatMul node's inputs followed by
// the bias of the AddRowVector node it replaces — so Backward's DFS meets
// every other node in the same order. Its backward adds what those two
// nodes added: the bias gradient row by row, then dx and dw from the
// output gradient, which is bitwise what the MatMul node received (a
// zeroed buffer plus this gradient; gradients are never -0).
func linearVia(ta *TrainArena, x, w, b *Tensor, wt []float64) *Tensor {
	m, k, n := checkMatMul(x, w)
	if b.Size() != n {
		panic(fmt.Sprintf("nn: Linear bias shape %v for output width %d", b.Shape, n))
	}
	out := ta.newResultRaw([]int{m, n}, x, w, b)
	ldb := btStride(k, n)
	if wt == nil && m > 0 && n > 0 && k > 0 {
		wt = ta.scratchFloatsRaw(n * ldb)
		transposeB(wt, w.Data, k, n)
	}
	matmulBT(out.Data, x.Data, wt, ta.padScratch(m, k, n), m, k, n, b.Data)
	if out.requiresGrad {
		out.backward = func() {
			if b.requiresGrad {
				for i := 0; i < m; i++ {
					addInto(b.Grad[:n], out.Grad[i*n:(i+1)*n])
				}
			}
			if x.requiresGrad {
				matmulGradA(x.Grad, out.Grad, w.Data, wt, m, k, n, ldb)
			}
			if w.requiresGrad {
				matmulGradB(w.Grad, x.Data, out.Grad, m, k, n)
			}
		}
	}
	return out
}

// Add returns a + b elementwise. Shapes must match exactly.
func Add(a, b *Tensor) *Tensor { return addVia(nil, a, b) }

func addVia(ta *TrainArena, a, b *Tensor) *Tensor {
	checkSameShape("Add", a, b)
	out := ta.newResultRaw(a.Shape, a, b)
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
func AddRowVector(a, v *Tensor) *Tensor { return addRowVectorVia(nil, a, v) }

func addRowVectorVia(ta *TrainArena, a, v *Tensor) *Tensor {
	m, n := checkRowVector(a, v)
	out := ta.newResultRaw(a.Shape, a, v)
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
func Mul(a, b *Tensor) *Tensor { return mulVia(nil, a, b) }

func mulVia(ta *TrainArena, a, b *Tensor) *Tensor {
	checkSameShape("Mul", a, b)
	out := ta.newResultRaw(a.Shape, a, b)
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
func Scale(a *Tensor, c float64) *Tensor { return scaleVia(nil, a, c) }

func scaleVia(ta *TrainArena, a *Tensor, c float64) *Tensor {
	out := ta.newResultRaw(a.Shape, a)
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
func ReLU(a *Tensor) *Tensor { return reluVia(nil, a) }

func reluVia(ta *TrainArena, a *Tensor) *Tensor {
	out := ta.newResultRaw(a.Shape, a)
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
func SoftmaxRows(a *Tensor) *Tensor { return softmaxRowsVia(nil, a) }

func softmaxRowsVia(ta *TrainArena, a *Tensor) *Tensor {
	if len(a.Shape) != 2 {
		panic("nn: SoftmaxRows requires a 2D tensor")
	}
	m, n := a.Shape[0], a.Shape[1]
	out := ta.newResultRaw(a.Shape, a)
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
func Concat(ts ...*Tensor) *Tensor { return concatVia(nil, ts...) }

func concatVia(ta *TrainArena, ts ...*Tensor) *Tensor {
	rows, cols := checkConcat(ts)
	out := ta.newResultRaw([]int{rows, cols}, ts...)
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
func ConcatRows(ts []*Tensor) *Tensor { return concatRowsVia(nil, ts) }

func concatRowsVia(ta *TrainArena, ts []*Tensor) *Tensor {
	rows, cols := checkConcatRows(ts)
	out := ta.newResultRaw([]int{rows, cols}, ts...)
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
func RepeatEachRow(v *Tensor, times int) *Tensor { return repeatEachRowVia(nil, v, times) }

func repeatEachRowVia(ta *TrainArena, v *Tensor, times int) *Tensor {
	if len(v.Shape) != 2 {
		panic("nn: RepeatEachRow requires a 2D tensor")
	}
	m, n := v.Shape[0], v.Shape[1]
	out := ta.newResultRaw([]int{m * times, n}, v)
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
func TileRows(v *Tensor, times int) *Tensor { return tileRowsVia(nil, v, times) }

func tileRowsVia(ta *TrainArena, v *Tensor, times int) *Tensor {
	if len(v.Shape) != 2 {
		panic("nn: TileRows requires a 2D tensor")
	}
	m, n := v.Shape[0], v.Shape[1]
	out := ta.newResultRaw([]int{m * times, n}, v)
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
	return maxPerGroupVia(nil, a, groups, per)
}

func maxPerGroupVia(ta *TrainArena, a *Tensor, groups, per int) *Tensor {
	checkMaxPerGroup(a, groups, per)
	out := ta.newResultRaw([]int{groups, 1}, a)
	argmax := ta.scratchInts(groups)
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
func Gather(table *Tensor, indices []int) *Tensor { return gatherVia(nil, table, indices) }

func gatherVia(ta *TrainArena, table *Tensor, indices []int) *Tensor {
	if len(table.Shape) != 2 {
		panic("nn: Gather requires a 2D table")
	}
	rows, cols := len(indices), table.Shape[1]
	out := ta.newResultRaw([]int{rows, cols}, table)
	gatherForward(out.Data, table.Data, indices, table.Shape[0], cols)
	if out.requiresGrad {
		idxCopy := ta.scratchInts(len(indices))
		copy(idxCopy, indices)
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
	return scatterMeanVia(nil, src, dst, dstRows)
}

func scatterMeanVia(ta *TrainArena, src *Tensor, dst []int, dstRows int) *Tensor {
	if len(src.Shape) != 2 || len(dst) != src.Shape[0] {
		panic("nn: ScatterMean shape mismatch")
	}
	cols := src.Shape[1]
	out := ta.newResult([]int{dstRows, cols}, src)
	counts := ta.scratchFloats(dstRows)
	scatterMeanForward(out.Data, counts, src.Data, dst, cols)
	if out.requiresGrad {
		dstCopy := ta.scratchInts(len(dst))
		copy(dstCopy, dst)
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

// MeanRows returns a (1,n) tensor holding the column means of a 2D tensor.
func MeanRows(a *Tensor) *Tensor { return meanRowsVia(nil, a) }

func meanRowsVia(ta *TrainArena, a *Tensor) *Tensor {
	if len(a.Shape) != 2 {
		panic("nn: MeanRows requires a 2D tensor")
	}
	m, n := a.Shape[0], a.Shape[1]
	out := ta.newResult([]int{1, n}, a)
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
	return bceWithLogitsVia(nil, logits, targets, weights)
}

func bceWithLogitsVia(ta *TrainArena, logits *Tensor, targets, weights []float64) *Tensor {
	if len(targets) != logits.Size() {
		panic("nn: BCEWithLogits target length mismatch")
	}
	if weights != nil && len(weights) != len(targets) {
		panic("nn: BCEWithLogits weight length mismatch")
	}
	out := ta.newResult([]int{1}, logits)
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
