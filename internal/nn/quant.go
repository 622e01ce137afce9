package nn

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Per-tensor affine int8 weight quantization for frozen checkpoints.
//
// A quantized tensor stores int8 codes plus a float64 (scale, zero-point)
// pair; the real value of code q is scale·(q−zero). Activations stay
// float64 throughout — only the big parameter tensors (linear weights,
// embedding tables) are quantized, which is where the memory and bandwidth
// live; tiny per-feature vectors (biases, layer-norm affines) are not worth
// the rounding error and stay exact.
//
// Determinism story (the part the campaign goldens care about):
//
//   - Quantization is a *pure function of the weights*: scale and zero-point
//     derive from each tensor's min/max, with round-to-nearest-even codes.
//     The same checkpoint quantizes to the same bytes on every machine.
//   - After quantizing, the float64 weight data is rewritten with the
//     dequantized values ("dequantized replay"). The unfused float64 path,
//     the fused float64 path and the live int8 kernels then all compute from
//     exactly the same weight values — scale·(q−zero) evaluated with the
//     same expression everywhere — so all three are bit-identical to each
//     other, and model outputs are reproducible per seed at any worker
//     count. Quantization changes outputs only relative to the *unquantized*
//     model, by at most Scale/2 per weight element.
type QuantTensor struct {
	Shape []int
	// Scale and Zero define the affine code map: value = Scale·(q−Zero).
	Scale float64
	Zero  int
	Data  []int8
	// dataT caches the transposed codes for 2D tensors ((cols, rows)
	// row-major), the layout the fused linear kernel consumes.
	dataT []int8
	// lut maps code+128 to its dequantized value Scale·(code−Zero), so the
	// hot kernels dequantize with one table load instead of an int→float
	// conversion and a multiply per element.
	lut [256]float64
	// deqT caches the dequantized transposed weights for 2D tensors. It is
	// elementwise identical to the float64 data ApplyDequantized writes, so
	// the fused AVX kernel can serve int8-stored linears at full float64
	// speed while staying bit-identical to the replay path. int8 remains the
	// storage, checkpoint and transport format; deqT is a serving-time cache.
	deqT []float64
	// deq caches the dequantized values in the original row-major layout,
	// so Gather serves embedding rows with a plain copy instead of a
	// per-element LUT conversion. Same serving-time tradeoff as deqT.
	deq []float64
}

// finish builds the derived caches (transposed codes, dequant LUT and the
// dequantized transpose) after Shape/Scale/Zero/Data are set. Both
// QuantizeTensor and the checkpoint decoder funnel through it.
func (q *QuantTensor) finish() {
	for c := 0; c < 256; c++ {
		q.lut[c] = q.Scale * float64(c-128-q.Zero)
	}
	if len(q.Shape) == 2 {
		rows, cols := q.Shape[0], q.Shape[1]
		q.dataT = make([]int8, rows*cols)
		q.deqT = make([]float64, rows*cols)
		q.deq = make([]float64, rows*cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				c := q.Data[i*cols+j]
				q.dataT[j*rows+i] = c
				v := q.lut[int(c)+128]
				q.deqT[j*rows+i] = v
				q.deq[i*cols+j] = v
			}
		}
	}
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
	q.finish()
	return q
}

// MaxAbsError returns the worst |original − dequantized| over t, the
// realized quantization error (≤ Scale/2 for in-range finite weights).
func (q *QuantTensor) MaxAbsError(t *Tensor) float64 {
	var worst float64
	for i, v := range t.Data {
		if math.IsNaN(v) {
			continue
		}
		d := math.Abs(v - q.Scale*float64(int(q.Data[i])-q.Zero))
		if d > worst {
			worst = d
		}
	}
	return worst
}

// Quantized is a registry of quantized parameter tensors, keyed both by
// parameter name (for serialization) and by the live *Tensor identity (for
// kernel dispatch).
type Quantized struct {
	byName   map[string]*QuantTensor
	byTensor map[*Tensor]*QuantTensor
}

// QuantizeParams quantizes every parameter with at least minSize elements
// (pass QuantMinSize for the standard policy) and returns the registry.
func QuantizeParams(params map[string]*Tensor, minSize int) *Quantized {
	qz := &Quantized{
		byName:   map[string]*QuantTensor{},
		byTensor: map[*Tensor]*QuantTensor{},
	}
	for name, t := range params {
		if t.Size() < minSize {
			continue
		}
		q := QuantizeTensor(t)
		qz.byName[name] = q
		qz.byTensor[t] = q
	}
	return qz
}

// Of returns the quantized form of t, or nil if t is not quantized.
func (qz *Quantized) Of(t *Tensor) *QuantTensor {
	if qz == nil {
		return nil
	}
	return qz.byTensor[t]
}

// Named returns the quantized form of the named parameter, or nil.
func (qz *Quantized) Named(name string) *QuantTensor {
	if qz == nil {
		return nil
	}
	return qz.byName[name]
}

// Len reports how many tensors are quantized.
func (qz *Quantized) Len() int {
	if qz == nil {
		return 0
	}
	return len(qz.byName)
}

// Rebind re-keys the identity index onto the given parameter set. Needed
// after a load or clone replaces the live tensors the registry was built on.
func (qz *Quantized) Rebind(params map[string]*Tensor) error {
	byTensor := map[*Tensor]*QuantTensor{}
	for name, q := range qz.byName {
		t, ok := params[name]
		if !ok {
			return fmt.Errorf("nn: quantized parameter %q not in model", name)
		}
		if t.Size() != q.Size() {
			return fmt.Errorf("nn: quantized parameter %q size mismatch: %d vs %d", name, q.Size(), t.Size())
		}
		byTensor[t] = q
	}
	qz.byTensor = byTensor
	return nil
}

// ApplyDequantized rewrites every quantized parameter's float64 data with
// its dequantized values, establishing the replay invariant: float64 and
// int8 kernels compute from identical weight values.
func (qz *Quantized) ApplyDequantized(params map[string]*Tensor) error {
	if err := qz.Rebind(params); err != nil {
		return err
	}
	for name, q := range qz.byName {
		q.Dequantize(params[name].Data)
	}
	return nil
}

// QuantStats summarizes a registry for reports and logs.
type QuantStats struct {
	Tensors   int     // quantized tensor count
	Int8Bytes int     // total int8 payload
	F64Bytes  int     // float64 bytes those tensors occupied
	MaxScale  float64 // largest per-tensor scale (bounds worst-case error at Scale/2)
}

// Stats summarizes the registry.
func (qz *Quantized) Stats() QuantStats {
	var s QuantStats
	if qz == nil {
		return s
	}
	names := make([]string, 0, len(qz.byName))
	for name := range qz.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		q := qz.byName[name]
		s.Tensors++
		s.Int8Bytes += q.Size()
		s.F64Bytes += 8 * q.Size()
		if q.Scale > s.MaxScale {
			s.MaxScale = q.Scale
		}
	}
	return s
}

// QuantInfer is an Infer whose fused linear and embedding-gather kernels
// read int8 weights, dequantizing inline. Under the dequantized-replay
// invariant (ApplyDequantized) its outputs are bit-identical to the float64
// paths: the inline scale·(q−zero) is the same expression, evaluated in the
// same dot-product summation order, as the rewritten float64 weights.
type QuantInfer struct {
	*Infer
	Quant *Quantized
}

// NewQuantInfer creates a fused inference context dispatching through the
// quantized registry.
func NewQuantInfer(p *Pool, qz *Quantized) *QuantInfer {
	return &QuantInfer{Infer: NewInferFused(p), Quant: qz}
}

// LinearBias implements FusedOps, routing weight matmuls with a quantized w
// through the int8 kernel.
func (qi *QuantInfer) LinearBias(x, w *Tensor, wt []float64, b *Tensor, relu bool) *Tensor {
	q := qi.Quant.Of(w)
	if q == nil || !qi.fused {
		return qi.Infer.LinearBias(x, w, wt, b, relu)
	}
	m, k, n := checkMatMul(x, w)
	if b.Size() != n {
		panic("nn: LinearBias bias size mismatch")
	}
	out := qi.allocRaw(m, n)
	if kernelProfiling.Load() {
		t0 := time.Now()
		linearBiasQForward(out.Data, x.Data, q, b.Data, m, k, n, relu)
		qi.prof.fusedLinearNs += time.Since(t0).Nanoseconds()
	} else {
		linearBiasQForward(out.Data, x.Data, q, b.Data, m, k, n, relu)
	}
	qi.prof.fusedLinear++
	qi.prof.quantKernels++
	return out
}

// Gather implements Ops, reading quantized embedding tables directly.
func (qi *QuantInfer) Gather(table *Tensor, indices []int) *Tensor {
	q := qi.Quant.Of(table)
	if q == nil {
		return qi.Infer.Gather(table, indices)
	}
	if len(table.Shape) != 2 {
		panic("nn: Gather requires a 2D table")
	}
	cols := table.Shape[1]
	out := qi.allocRaw(len(indices), cols)
	gatherQForward(out.Data, q, indices, table.Shape[0], cols)
	qi.prof.quantKernels++
	return out
}

// GatherAddInto implements FusedOps against quantized embedding tables:
// dst[i,:] += the dequantized table row — elementwise the gatherQForward
// values, summed in Add order (dst the left operand).
func (qi *QuantInfer) GatherAddInto(dst, table *Tensor, indices []int) {
	q := qi.Quant.Of(table)
	if q == nil {
		qi.Infer.GatherAddInto(dst, table, indices)
		return
	}
	cols := checkGatherAdd(dst, table, indices)
	rows := table.Shape[0]
	if q.deq != nil {
		gatherAddForward(dst.Data, q.deq, indices, rows, cols)
	} else {
		for i, idx := range indices {
			if idx < 0 || idx >= rows {
				panic(fmt.Sprintf("nn: GatherAddInto index %d out of range [0,%d)", idx, rows))
			}
			row := q.Data[idx*cols : (idx+1)*cols]
			orow := dst.Data[i*cols : (i+1)*cols]
			for j, c := range row {
				orow[j] += q.lut[int(c)+128]
			}
		}
	}
	qi.prof.quantKernels++
}

// linearBiasQForward is the int8-stored fused linear kernel: out = x×W + b
// (+ReLU) with W held as codes. When the dequantized-transpose cache is
// present (always, for tensors built by QuantizeTensor or the checkpoint
// decoder) it runs the full fused AVX kernel over deqT — elementwise
// identical weights, identical summation order, so bit-identical output at
// float64 speed. Without the cache it falls back to the reference kernel
// that dequantizes inline per element.
func linearBiasQForward(out, x []float64, q *QuantTensor, bias []float64, m, k, n int, relu bool) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		clear(out[:m*n])
		biasReluRows(out, bias, 0, m, n, relu)
		return
	}
	if q.deq != nil && padKEligible(k, n) {
		// Same zero-padded small-k path as the float64 kernels, over the
		// row-major dequant cache — identical weights, identical order.
		matmulPadK(out, x, q.deq, m, k, n)
		biasReluRows(out, bias, 0, m, n, relu)
		return
	}
	if q.deqT != nil {
		matmulEpilogue(out, x, q.deqT, m, k, n, bias, relu)
		return
	}
	rows := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := x[i*k : (i+1)*k]
			orow := out[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				orow[j] = dotScalarQ(arow, q.dataT[j*k:(j+1)*k], q.Scale, q.Zero, k)
			}
		}
		biasReluRows(out, bias, lo, hi, n, relu)
	}
	if m*k*n >= matmulParallelMin {
		parallelRows(m, 2, rows)
	} else {
		rows(0, m)
	}
}

// dotScalarQ mirrors dotScalar — four FMA lanes reduced (s0+s1)+(s2+s3),
// then an ascending FMA tail — with the weight dequantized inline.
// scale·(q−zero) is the exact expression ApplyDequantized wrote into the
// float64 weights, so every FMA step is bitwise the same as the float64
// kernel's.
func dotScalarQ(a []float64, b []int8, scale float64, zero, k int) float64 {
	var s0, s1, s2, s3 float64
	k4 := k &^ 3
	for p := 0; p < k4; p += 4 {
		s0 = math.FMA(a[p], scale*float64(int(b[p])-zero), s0)
		s1 = math.FMA(a[p+1], scale*float64(int(b[p+1])-zero), s1)
		s2 = math.FMA(a[p+2], scale*float64(int(b[p+2])-zero), s2)
		s3 = math.FMA(a[p+3], scale*float64(int(b[p+3])-zero), s3)
	}
	s := (s0 + s1) + (s2 + s3)
	for p := k4; p < k; p++ {
		s = math.FMA(a[p], scale*float64(int(b[p])-zero), s)
	}
	return s
}

// gatherQForward copies embedding rows out of the int8 table. With the
// row-major dequantized cache present it is a plain row copy — the cached
// values are the LUT's, so bitwise the replay weights; without it, it
// dequantizes inline with the same expression as dotScalarQ.
func gatherQForward(dst []float64, q *QuantTensor, indices []int, tableRows, cols int) {
	for i, idx := range indices {
		if idx < 0 || idx >= tableRows {
			panic(fmt.Sprintf("nn: Gather index %d out of range [0,%d)", idx, tableRows))
		}
		orow := dst[i*cols : (i+1)*cols]
		if q.deq != nil {
			copy(orow, q.deq[idx*cols:(idx+1)*cols])
			continue
		}
		row := q.Data[idx*cols : (idx+1)*cols]
		for j, c := range row {
			orow[j] = q.lut[int(c)+128]
		}
	}
}
