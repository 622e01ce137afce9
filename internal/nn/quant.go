package nn

import (
	"fmt"
	"math"
)

// Per-tensor affine int8 weight quantization: a checkpoint and transport
// codec for frozen models, not a kernel family.
//
// A quantized tensor stores int8 codes plus a float64 (scale, zero-point)
// pair; the real value of code q is scale·(q−zero). Only the big parameter
// tensors (linear weights, embedding tables) are quantized, which is where
// the bytes live; tiny per-feature vectors (biases, layer-norm affines) are
// not worth the rounding error and stay exact.
//
// Determinism story (the part the campaign goldens care about):
//
//   - Quantization is a *pure function of the weights*: scale and zero-point
//     derive from each tensor's min/max, with round-to-nearest-even codes.
//     The same checkpoint quantizes to the same bytes on every machine.
//   - After quantizing, the float64 weight data is rewritten with the
//     dequantized values ("dequantized replay"), and a mixed-precision
//     checkpoint loads to those same values. Every inference path — plain or
//     fused — then computes from the one float64 copy, so a quantized model
//     is served by the ordinary kernels and is reproducible per seed at any
//     worker count. Quantization changes outputs only relative to the
//     *unquantized* model, by at most Scale/2 per weight element.
//
// The codes are kept only so SaveQuantParams can write them back out.
type QuantTensor struct {
	Shape []int
	// Scale and Zero define the affine code map: value = Scale·(q−Zero).
	Scale float64
	Zero  int
	Data  []int8
}

// Size returns the number of elements.
func (q *QuantTensor) Size() int { return len(q.Data) }

// Dequantize writes the real values of the codes into dst (len Size).
func (q *QuantTensor) Dequantize(dst []float64) {
	for i, c := range q.Data {
		dst[i] = q.Scale * float64(int(c)-q.Zero)
	}
}

// QuantMinSize is the minimum element count before a tensor is quantized;
// smaller tensors (biases, layer-norm affines) stay float64.
const QuantMinSize = 64

// QuantizeTensor builds the per-tensor affine int8 encoding of t. The code
// map is chosen so every finite weight round-trips within Scale/2:
// scale = (max−min)/255 with the zero-point anchored at min ↦ −128.
func QuantizeTensor(t *Tensor) *QuantTensor {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range t.Data {
		if math.IsNaN(v) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	q := &QuantTensor{
		Shape: append([]int(nil), t.Shape...),
		Data:  make([]int8, len(t.Data)),
	}
	switch {
	case !(lo <= hi):
		// No finite values at all; encode zeros exactly.
		q.Scale, q.Zero = 1, 0
	case lo == hi:
		// Constant tensor, represented exactly: Scale·(1−0) = lo for every
		// element (or code 0 with Scale 1 when the constant is zero).
		if lo == 0 {
			q.Scale, q.Zero = 1, 0
		} else {
			q.Scale, q.Zero = lo, 0
			for i := range q.Data {
				q.Data[i] = 1
			}
		}
	default:
		q.Scale = (hi - lo) / 255
		q.Zero = -128 - int(math.RoundToEven(lo/q.Scale))
		for i, v := range t.Data {
			c := math.RoundToEven(v/q.Scale) + float64(q.Zero)
			if c < -128 {
				c = -128
			} else if c > 127 {
				c = 127
			}
			q.Data[i] = int8(c)
		}
	}
	return q
}

// Quantized is the registry of quantized parameter tensors by parameter
// name: what a mixed-precision checkpoint stores in place of float64 data.
type Quantized map[string]*QuantTensor

// QuantizeParams quantizes every parameter with at least minSize elements
// (pass QuantMinSize for the standard policy) and returns the registry.
func QuantizeParams(params map[string]*Tensor, minSize int) Quantized {
	qz := Quantized{}
	for name, t := range params {
		if t.Size() >= minSize {
			qz[name] = QuantizeTensor(t)
		}
	}
	return qz
}

// ApplyDequantized rewrites every quantized parameter's float64 data with
// its dequantized values, establishing the replay invariant: the model
// computes from exactly the values its quantized checkpoint decodes to.
func (qz Quantized) ApplyDequantized(params map[string]*Tensor) error {
	for name, q := range qz {
		t, ok := params[name]
		if !ok {
			return fmt.Errorf("nn: quantized parameter %q not in model", name)
		}
		if t.Size() != q.Size() {
			return fmt.Errorf("nn: quantized parameter %q size mismatch: %d vs %d", name, q.Size(), t.Size())
		}
		q.Dequantize(t.Data)
	}
	return nil
}
