// Package nn is a small, dependency-free neural-network library with
// reverse-mode automatic differentiation.
//
// It provides the pieces PMM needs — dense layers, embeddings, layer
// normalization, single-head self-attention, relational graph aggregation —
// on top of a float64 Tensor type. Gradients are recorded lazily: an
// operation attaches a backward closure to its output only when at least one
// input participates in differentiation, so inference on a frozen model
// allocates no tape and is safe to run from many goroutines concurrently.
package nn

import (
	"fmt"
	"sync/atomic"
)

// Tensor is a dense row-major array of float64 with optional gradient
// storage. Tensors returned by operations carry the backward tape needed to
// propagate gradients to their inputs.
type Tensor struct {
	Shape []int
	Data  []float64
	Grad  []float64

	requiresGrad bool
	parents      []*Tensor
	backward     func()

	// arenaIdx is the tensor's slot in the Infer arena that allocated it
	// (infer.go); zero and unused for ordinary tensors.
	arenaIdx int
	// visited is the number of the last Backward whose traversal reached
	// the tensor.
	visited uint64
}

// New creates a tensor with the given shape and zero-initialized data.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("nn: negative dimension in shape %v", shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// FromSlice creates a tensor with the given shape that adopts data. The
// length of data must equal the shape's element count.
func FromSlice(data []float64, shape ...int) *Tensor {
	t := &Tensor{Shape: append([]int(nil), shape...), Data: data}
	if len(data) != t.Size() {
		panic(fmt.Sprintf("nn: data length %d does not match shape %v", len(data), shape))
	}
	return t
}

// Size returns the total number of elements.
func (t *Tensor) Size() int {
	n := 1
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// At returns the element at the given row-major indices (2D only).
func (t *Tensor) At(i, j int) float64 {
	if len(t.Shape) != 2 {
		panic("nn: At requires a 2D tensor")
	}
	return t.Data[i*t.Shape[1]+j]
}

// Set assigns the element at the given row-major indices (2D only).
func (t *Tensor) Set(i, j int, v float64) {
	if len(t.Shape) != 2 {
		panic("nn: Set requires a 2D tensor")
	}
	t.Data[i*t.Shape[1]+j] = v
}

// Row returns a view of row i of a 2D tensor. Mutating the returned slice
// mutates the tensor.
func (t *Tensor) Row(i int) []float64 {
	if len(t.Shape) != 2 {
		panic("nn: Row requires a 2D tensor")
	}
	c := t.Shape[1]
	return t.Data[i*c : (i+1)*c]
}

// Item returns the single value of a one-element tensor.
func (t *Tensor) Item() float64 {
	if t.Size() != 1 {
		panic("nn: Item requires a one-element tensor")
	}
	return t.Data[0]
}

// RequireGrad marks the tensor as a differentiation leaf (a parameter) and
// allocates its gradient buffer. It returns the tensor for chaining.
func (t *Tensor) RequireGrad() *Tensor {
	t.requiresGrad = true
	if t.Grad == nil {
		t.Grad = make([]float64, t.Size())
	}
	return t
}

// RequiresGrad reports whether the tensor participates in differentiation,
// either as a leaf or as the output of an operation over such leaves.
func (t *Tensor) RequiresGrad() bool { return t.requiresGrad }

// UnrequireGrad removes the tensor from differentiation (inference mode):
// subsequent operations over it record no tape, making concurrent forward
// passes safe. The gradient buffer is released.
func (t *Tensor) UnrequireGrad() {
	t.requiresGrad = false
	t.Grad = nil
	t.parents = nil
	t.backward = nil
}

// ZeroGrad clears the gradient buffer if present.
func (t *Tensor) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}

// Detach returns a copy of the tensor's values that does not participate in
// differentiation.
func (t *Tensor) Detach() *Tensor {
	out := New(t.Shape...)
	copy(out.Data, t.Data)
	return out
}

// Clone returns a deep copy of shape and data. Gradient state is not copied.
func (t *Tensor) Clone() *Tensor {
	out := New(t.Shape...)
	copy(out.Data, t.Data)
	return out
}

// newResult constructs an op output over the given inputs. The result tracks
// gradients only when some input does; in that case grad storage is
// allocated, the inputs are copied into its parent list, and the backward
// closure will be invoked during Backward. Neither slice argument escapes,
// so an op's shape literal and input list stay on its stack (New's
// validation would leak the shape into its panic message).
func newResult(shape []int, inputs ...*Tensor) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	out := &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
	for _, in := range inputs {
		if in != nil && in.requiresGrad {
			out.requiresGrad = true
			out.Grad = make([]float64, n)
			out.parents = append([]*Tensor(nil), inputs...)
			break
		}
	}
	return out
}

// backwardCount numbers Backward calls; a tensor whose visited field holds
// the current number has been reached by the current traversal.
var backwardCount atomic.Uint64

// idleBackwardBufs holds one idle set of Backward's traversal buffers. A
// call that finds it taken by a concurrent Backward allocates its own. (A
// sync.Pool drops items at random under the race detector, which would
// make a training step's allocation count vary there.)
var idleBackwardBufs atomic.Pointer[backwardBufs]

type backwardBufs struct {
	order []*Tensor
	stack []backwardFrame
}

type backwardFrame struct {
	t    *Tensor
	next int
}

// Backward propagates gradients from t (typically a scalar loss) to all
// parameter leaves reachable through the tape. The tensor's own gradient is
// seeded with ones. Concurrent calls must not share a tensor that requires
// grad: they would race on its gradient, and on its visited mark.
func (t *Tensor) Backward() {
	if !t.requiresGrad {
		panic("nn: Backward on a tensor that does not require grad")
	}
	for i := range t.Grad {
		t.Grad[i] = 1
	}
	// Topological order via iterative DFS over parents, marking each
	// tensor reached with this call's number.
	mark := backwardCount.Add(1)
	bufs := idleBackwardBufs.Swap(nil)
	if bufs == nil {
		bufs = new(backwardBufs)
	}
	order, stack := bufs.order[:0], bufs.stack[:0]
	stack = append(stack, backwardFrame{t, 0})
	t.visited = mark
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.t.parents) {
			p := f.t.parents[f.next]
			f.next++
			if p != nil && p.requiresGrad && p.visited != mark {
				p.visited = mark
				stack = append(stack, backwardFrame{p, 0})
			}
			continue
		}
		order = append(order, f.t)
		stack = stack[:len(stack)-1]
	}
	// order is post-order (children before parents in the DFS tree), so
	// reverse iteration visits each tensor before its inputs.
	for i := len(order) - 1; i >= 0; i-- {
		if order[i].backward != nil {
			order[i].backward()
		}
	}
	clear(order)
	clear(stack[:cap(stack)])
	bufs.order, bufs.stack = order[:0], stack[:0]
	idleBackwardBufs.Store(bufs)
}

func sameShape(a, b *Tensor) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	return true
}
