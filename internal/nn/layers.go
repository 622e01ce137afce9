package nn

import (
	"fmt"
	"math"

	"github.com/repro/snowplow/internal/rng"
)

// Layer is any component exposing its trainable parameters.
type Layer interface {
	// Params returns the trainable tensors, in a stable order.
	Params() []*Tensor
}

// Linear is a fully connected layer: y = xW + b.
type Linear struct {
	W *Tensor // (in, out)
	B *Tensor // (1, out)

	// wt caches W transposed ((out, in) row-major) for the fused inference
	// kernel; built by FreezeFused on frozen models, nil during training.
	wt []float64
}

// NewLinear creates a Linear layer with Kaiming-uniform initialized weights.
func NewLinear(r *rng.Rand, in, out int) *Linear {
	l := &Linear{W: New(in, out).RequireGrad(), B: New(1, out).RequireGrad()}
	bound := math.Sqrt(6.0 / float64(in))
	for i := range l.W.Data {
		l.W.Data[i] = (2*float64(r.Float64()) - 1) * bound
	}
	return l
}

// Forward applies the layer to x of shape (m, in).
func (l *Linear) Forward(x *Tensor) *Tensor {
	return l.ForwardOps(TrainOps{}, x)
}

// ForwardOps applies the layer through the given op set.
func (l *Linear) ForwardOps(ops Ops, x *Tensor) *Tensor {
	if ta, ok := ops.(*TrainArena); ok {
		return ta.Linear(x, l.W, l.B)
	}
	return ops.AddRowVector(ops.MatMul(x, l.W), l.B)
}

// ForwardInfer applies the layer through the fused linear kernel.
func (l *Linear) ForwardInfer(in *Infer, x *Tensor) *Tensor {
	return in.LinearBias(x, l.W, l.wt, l.B, false)
}

// FreezeFused precomputes the transposed weight used by the fused inference
// kernel, sparing every LinearBias call its transpose + scratch round trip.
// Call on frozen models only (and again after any weight rewrite, e.g.
// ApplyDequantized): the cache is a copy, not a view.
func (l *Linear) FreezeFused() {
	in, out := l.W.Shape[0], l.W.Shape[1]
	if len(l.wt) != in*out {
		l.wt = make([]float64, in*out)
	}
	transposeForward(l.wt, l.W.Data, in, out)
}

// Params implements Layer.
func (l *Linear) Params() []*Tensor { return []*Tensor{l.W, l.B} }

// Embedding maps integer ids to learned dense vectors.
type Embedding struct {
	Table *Tensor // (vocab, dim)
}

// NewEmbedding creates an embedding table with N(0, 0.1) initialization.
func NewEmbedding(r *rng.Rand, vocab, dim int) *Embedding {
	e := &Embedding{Table: New(vocab, dim).RequireGrad()}
	for i := range e.Table.Data {
		e.Table.Data[i] = r.NormFloat64() * 0.1
	}
	return e
}

// Forward looks up one row per id.
func (e *Embedding) Forward(ids []int) *Tensor { return Gather(e.Table, ids) }

// ForwardOps looks up one row per id through the given op set.
func (e *Embedding) ForwardOps(ops Ops, ids []int) *Tensor { return ops.Gather(e.Table, ids) }

// ForwardInfer looks up one row per id into an inference arena tensor.
func (e *Embedding) ForwardInfer(in *Infer, ids []int) *Tensor { return in.Gather(e.Table, ids) }

// ForwardAddInfer accumulates the looked-up rows into dst in place:
// dst[i,:] += Table[ids[i],:], bitwise the ForwardOps → Add pair without
// the intermediate tensor.
func (e *Embedding) ForwardAddInfer(in *Infer, dst *Tensor, ids []int) {
	in.GatherAddInto(dst, e.Table, ids)
}

// Params implements Layer.
func (e *Embedding) Params() []*Tensor { return []*Tensor{e.Table} }

// LayerNorm normalizes each row to zero mean and unit variance, then applies
// a learned affine transform.
type LayerNorm struct {
	Gamma *Tensor // (1, dim)
	Beta  *Tensor // (1, dim)
	eps   float64
}

// NewLayerNorm creates a LayerNorm over the given feature dimension.
func NewLayerNorm(dim int) *LayerNorm {
	ln := &LayerNorm{Gamma: New(1, dim).RequireGrad(), Beta: New(1, dim).RequireGrad(), eps: 1e-5}
	for i := range ln.Gamma.Data {
		ln.Gamma.Data[i] = 1
	}
	return ln
}

// Forward normalizes x of shape (m, dim) row-wise.
func (ln *LayerNorm) Forward(x *Tensor) *Tensor {
	return ln.ForwardOps(TrainOps{}, x)
}

// ForwardOps normalizes x through the given op set.
func (ln *LayerNorm) ForwardOps(ops Ops, x *Tensor) *Tensor {
	if len(x.Shape) != 2 || x.Shape[1] != ln.Gamma.Shape[1] {
		panic(fmt.Sprintf("nn: LayerNorm dim mismatch %v vs %v", x.Shape, ln.Gamma.Shape))
	}
	return ops.LayerNorm(x, ln.Gamma, ln.Beta, ln.eps)
}

// ForwardAddOps normalizes x+y (the residual-add-then-norm pattern) through
// the given op set.
func (ln *LayerNorm) ForwardAddOps(ops Ops, x, y *Tensor) *Tensor {
	return ln.ForwardOps(ops, ops.Add(x, y))
}

// ForwardAddInfer normalizes x+y through the fused add+norm kernel.
func (ln *LayerNorm) ForwardAddInfer(in *Infer, x, y *Tensor) *Tensor {
	return in.AddLayerNorm(x, y, ln.Gamma, ln.Beta, ln.eps)
}

// layerNormTrain is the autodiff layer-norm op behind TrainOps.LayerNorm.
func layerNormTrain(x, gamma, beta *Tensor, eps float64) *Tensor {
	return layerNormVia(nil, x, gamma, beta, eps)
}

func layerNormVia(ta *TrainArena, x, gamma, beta *Tensor, eps float64) *Tensor {
	m, n := x.Shape[0], x.Shape[1]
	out := ta.newResultRaw(x.Shape, x, gamma, beta)
	means := ta.scratchFloatsRaw(m)
	invStds := ta.scratchFloatsRaw(m)
	layerNormForward(out.Data, x.Data, gamma.Data, beta.Data, m, n, eps, means, invStds)
	if out.requiresGrad {
		gh := ta.scratchFloatsRaw(n)
		out.backward = func() {
			for i := 0; i < m; i++ {
				row := x.Data[i*n : (i+1)*n]
				grow := out.Grad[i*n : (i+1)*n]
				mean, invStd := means[i], invStds[i]
				if gamma.requiresGrad {
					for j := 0; j < n; j++ {
						xhat := (row[j] - mean) * invStd
						gamma.Grad[j] += float64(grow[j] * xhat)
						beta.Grad[j] += grow[j]
					}
				}
				if x.requiresGrad {
					// d xhat_j = g_j * gamma_j ; standard layernorm backward.
					var sumG, sumGX float64
					for j := 0; j < n; j++ {
						gh[j] = float64(grow[j] * gamma.Data[j])
						xhat := (row[j] - mean) * invStd
						sumG += gh[j]
						sumGX += float64(gh[j] * xhat)
					}
					for j := 0; j < n; j++ {
						xhat := (row[j] - mean) * invStd
						x.Grad[i*n+j] += float64(invStd * (gh[j] - sumG/float64(n) - xhat*sumGX/float64(n)))
					}
				}
			}
		}
	}
	return out
}

// Params implements Layer.
func (ln *LayerNorm) Params() []*Tensor { return []*Tensor{ln.Gamma, ln.Beta} }

// SelfAttention is a single-head scaled dot-product self-attention block
// with a residual connection and layer normalization. It is the core of the
// token encoder that embeds kernel basic-block instruction sequences.
type SelfAttention struct {
	Q, K, V *Linear
	Out     *Linear
	Norm    *LayerNorm
	dim     int
}

// NewSelfAttention creates a self-attention block over dim features.
func NewSelfAttention(r *rng.Rand, dim int) *SelfAttention {
	return &SelfAttention{
		Q:    NewLinear(r, dim, dim),
		K:    NewLinear(r, dim, dim),
		V:    NewLinear(r, dim, dim),
		Out:  NewLinear(r, dim, dim),
		Norm: NewLayerNorm(dim),
		dim:  dim,
	}
}

// Forward applies attention across the rows of x (sequence length m,
// features dim) and returns a tensor of the same shape.
func (sa *SelfAttention) Forward(x *Tensor) *Tensor {
	return sa.ForwardOps(TrainOps{}, x)
}

// ForwardOps applies attention through the given op set.
func (sa *SelfAttention) ForwardOps(ops Ops, x *Tensor) *Tensor {
	q := sa.Q.ForwardOps(ops, x)
	k := sa.K.ForwardOps(ops, x)
	v := sa.V.ForwardOps(ops, x)
	scores := ops.Scale(ops.MatMul(q, ops.Transpose(k)), 1/math.Sqrt(float64(sa.dim)))
	proj := sa.Out.ForwardOps(ops, ops.MatMul(ops.SoftmaxRows(scores), v))
	return sa.Norm.ForwardAddOps(ops, x, proj)
}

// ForwardRaggedInfer applies the attention block independently over row
// segments of x (bounds[s]..bounds[s+1] delimit segment s) through the fused
// kernels. The Q/K/V/Out projections and the residual layer norm batch
// across all segments in single kernels — each of their output rows depends
// only on its own input row, so batching cannot change a bit — while the
// score/softmax/weighted-sum step runs per segment. Bit-identical to calling
// ForwardOps on each segment separately, at a fraction of the kernel
// launches for many short sequences.
func (sa *SelfAttention) ForwardRaggedInfer(in *Infer, x *Tensor, bounds []int) *Tensor {
	q := sa.Q.ForwardInfer(in, x)
	k := sa.K.ForwardInfer(in, x)
	v := sa.V.ForwardInfer(in, x)
	ctx := in.RaggedScaledDotAttention(q, k, v, bounds, 1/math.Sqrt(float64(sa.dim)))
	proj := sa.Out.ForwardInfer(in, ctx)
	out := sa.Norm.ForwardAddInfer(in, x, proj)
	in.Recycle(q, k, v, ctx, proj)
	return out
}

// Params implements Layer.
func (sa *SelfAttention) Params() []*Tensor {
	var ps []*Tensor
	for _, l := range []Layer{sa.Q, sa.K, sa.V, sa.Out, sa.Norm} {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Transpose returns the transpose of a 2D tensor.
func Transpose(a *Tensor) *Tensor { return transposeVia(nil, a) }

func transposeVia(ta *TrainArena, a *Tensor) *Tensor {
	if len(a.Shape) != 2 {
		panic("nn: Transpose requires a 2D tensor")
	}
	m, n := a.Shape[0], a.Shape[1]
	out := ta.newResultRaw([]int{n, m}, a)
	transposeForward(out.Data, a.Data, m, n)
	if out.requiresGrad {
		out.backward = func() {
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					a.Grad[i*n+j] += out.Grad[j*m+i]
				}
			}
		}
	}
	return out
}

// MLP is a stack of Linear layers with ReLU between them (none after the
// last layer).
type MLP struct {
	Layers []*Linear
}

// NewMLP creates an MLP with the given layer widths, e.g. (r, 64, 32, 1).
func NewMLP(r *rng.Rand, widths ...int) *MLP {
	if len(widths) < 2 {
		panic("nn: NewMLP needs at least input and output widths")
	}
	m := &MLP{}
	for i := 0; i+1 < len(widths); i++ {
		m.Layers = append(m.Layers, NewLinear(r, widths[i], widths[i+1]))
	}
	return m
}

// Forward applies the stack to x.
func (m *MLP) Forward(x *Tensor) *Tensor {
	return m.ForwardOps(TrainOps{}, x)
}

// ForwardOps applies the stack through the given op set.
func (m *MLP) ForwardOps(ops Ops, x *Tensor) *Tensor {
	cur := x
	for i, l := range m.Layers {
		cur = l.ForwardOps(ops, cur)
		if i+1 < len(m.Layers) {
			cur = ops.ReLU(cur)
		}
	}
	return cur
}

// ForwardInfer applies the stack through the fused kernels: each hidden
// layer runs as a single linear+bias+ReLU kernel. The input x is never
// recycled; every intermediate is.
func (m *MLP) ForwardInfer(in *Infer, x *Tensor) *Tensor {
	cur := x
	for i, l := range m.Layers {
		next := in.LinearBias(cur, l.W, l.wt, l.B, i+1 < len(m.Layers))
		if cur != x {
			in.Recycle(cur)
		}
		cur = next
	}
	return cur
}

// Params implements Layer.
func (m *MLP) Params() []*Tensor {
	var ps []*Tensor
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}
