package nn

import (
	"fmt"
	"math"
)

// Forward kernels over raw slices, shared verbatim by the training ops
// (ops.go, layers.go) and the pooled inference ops (infer.go). One
// implementation per operation is what keeps the two paths bit-identical:
// the only difference between training and inference is where the output
// memory comes from and whether a backward closure is attached.

func addForward(dst, a, b []float64) {
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

func mulForward(dst, a, b []float64) {
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

func scaleForward(dst, a []float64, c float64) {
	for i := range dst {
		dst[i] = a[i] * c
	}
}

func reluForward(dst, a []float64) {
	for i, v := range a {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

func addRowVectorForward(dst, a, v []float64, m, n int) {
	for i := 0; i < m; i++ {
		row := a[i*n : (i+1)*n]
		drow := dst[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			drow[j] = row[j] + v[j]
		}
	}
}

func softmaxRowsForward(dst, a []float64, m, n int) {
	for i := 0; i < m; i++ {
		softmaxRow(dst[i*n:(i+1)*n], a[i*n:(i+1)*n])
	}
}

// expApprox constants: k = round(x·log2e) via the 1.5·2^52 shift trick,
// r = x - k·ln2 in two exactly-representable pieces, then a degree-10
// Taylor polynomial on |r| ≤ ln2/2 (next term ≈ 2e-13 relative — far below
// the int8 quantization error budget) and an exact 2^k exponent-bit scale.
const (
	expLog2E = 1.44269504088896338700e+00
	expLn2Hi = 6.93147180369123816490e-01
	expLn2Lo = 1.90821492927058770002e-10
	expShift = 6755399441055744.0 // 1.5 * 2^52
)

// expApprox computes exp(x) for the softmax kernel: x = v - max(row) is
// finite and ≤ 0. Every step is an exactly-rounded IEEE operation (mul,
// add, math.FMA) or pure bit manipulation, so unlike math.Exp — which has
// per-architecture assembly — the result is bit-identical on every
// platform and every Go release.
func expApprox(x float64) float64 {
	if x < -708 {
		// Clamp at the subnormal cliff so the exponent-bit scale below
		// stays in normal range; exp(-708) ≈ 3e-308 is zero for softmax
		// purposes either way.
		x = -708
	}
	kf := math.FMA(x, expLog2E, expShift) - expShift
	r := math.FMA(kf, -expLn2Hi, x)
	r = math.FMA(kf, -expLn2Lo, r)
	p := 1.0 / 3628800
	p = math.FMA(p, r, 1.0/362880)
	p = math.FMA(p, r, 1.0/40320)
	p = math.FMA(p, r, 1.0/5040)
	p = math.FMA(p, r, 1.0/720)
	p = math.FMA(p, r, 1.0/120)
	p = math.FMA(p, r, 1.0/24)
	p = math.FMA(p, r, 1.0/6)
	p = math.FMA(p, r, 0.5)
	p = math.FMA(p, r, 1)
	p = math.FMA(p, r, 1)
	// x ≥ -708 keeps k ≥ -1022, so the biased exponent stays positive and
	// 2^k is a normal float; the final multiply handles gradual underflow.
	return p * math.Float64frombits(uint64(int64(1023)+int64(kf))<<52)
}

// exp4 evaluates expApprox on four independent inputs with the four Horner
// chains interleaved. Each lane performs exactly expApprox's operation
// sequence — same clamp, same reduction, same polynomial — so
// exp4(a,b,c,d) ≡ (expApprox(a), …, expApprox(d)) bit for bit; the
// interleave only lets the four serial FMA chains overlap in the pipeline.
func exp4(x0, x1, x2, x3 float64) (float64, float64, float64, float64) {
	if x0 < -708 {
		x0 = -708
	}
	if x1 < -708 {
		x1 = -708
	}
	if x2 < -708 {
		x2 = -708
	}
	if x3 < -708 {
		x3 = -708
	}
	k0 := math.FMA(x0, expLog2E, expShift) - expShift
	k1 := math.FMA(x1, expLog2E, expShift) - expShift
	k2 := math.FMA(x2, expLog2E, expShift) - expShift
	k3 := math.FMA(x3, expLog2E, expShift) - expShift
	r0 := math.FMA(k0, -expLn2Hi, x0)
	r1 := math.FMA(k1, -expLn2Hi, x1)
	r2 := math.FMA(k2, -expLn2Hi, x2)
	r3 := math.FMA(k3, -expLn2Hi, x3)
	r0 = math.FMA(k0, -expLn2Lo, r0)
	r1 = math.FMA(k1, -expLn2Lo, r1)
	r2 = math.FMA(k2, -expLn2Lo, r2)
	r3 = math.FMA(k3, -expLn2Lo, r3)
	const c10 = 1.0 / 3628800
	p0, p1, p2, p3 := c10, c10, c10, c10
	p0 = math.FMA(p0, r0, 1.0/362880)
	p1 = math.FMA(p1, r1, 1.0/362880)
	p2 = math.FMA(p2, r2, 1.0/362880)
	p3 = math.FMA(p3, r3, 1.0/362880)
	p0 = math.FMA(p0, r0, 1.0/40320)
	p1 = math.FMA(p1, r1, 1.0/40320)
	p2 = math.FMA(p2, r2, 1.0/40320)
	p3 = math.FMA(p3, r3, 1.0/40320)
	p0 = math.FMA(p0, r0, 1.0/5040)
	p1 = math.FMA(p1, r1, 1.0/5040)
	p2 = math.FMA(p2, r2, 1.0/5040)
	p3 = math.FMA(p3, r3, 1.0/5040)
	p0 = math.FMA(p0, r0, 1.0/720)
	p1 = math.FMA(p1, r1, 1.0/720)
	p2 = math.FMA(p2, r2, 1.0/720)
	p3 = math.FMA(p3, r3, 1.0/720)
	p0 = math.FMA(p0, r0, 1.0/120)
	p1 = math.FMA(p1, r1, 1.0/120)
	p2 = math.FMA(p2, r2, 1.0/120)
	p3 = math.FMA(p3, r3, 1.0/120)
	p0 = math.FMA(p0, r0, 1.0/24)
	p1 = math.FMA(p1, r1, 1.0/24)
	p2 = math.FMA(p2, r2, 1.0/24)
	p3 = math.FMA(p3, r3, 1.0/24)
	p0 = math.FMA(p0, r0, 1.0/6)
	p1 = math.FMA(p1, r1, 1.0/6)
	p2 = math.FMA(p2, r2, 1.0/6)
	p3 = math.FMA(p3, r3, 1.0/6)
	p0 = math.FMA(p0, r0, 0.5)
	p1 = math.FMA(p1, r1, 0.5)
	p2 = math.FMA(p2, r2, 0.5)
	p3 = math.FMA(p3, r3, 0.5)
	p0 = math.FMA(p0, r0, 1)
	p1 = math.FMA(p1, r1, 1)
	p2 = math.FMA(p2, r2, 1)
	p3 = math.FMA(p3, r3, 1)
	p0 = math.FMA(p0, r0, 1)
	p1 = math.FMA(p1, r1, 1)
	p2 = math.FMA(p2, r2, 1)
	p3 = math.FMA(p3, r3, 1)
	p0 *= math.Float64frombits(uint64(int64(1023)+int64(k0)) << 52)
	p1 *= math.Float64frombits(uint64(int64(1023)+int64(k1)) << 52)
	p2 *= math.Float64frombits(uint64(int64(1023)+int64(k2)) << 52)
	p3 *= math.Float64frombits(uint64(int64(1023)+int64(k3)) << 52)
	return p0, p1, p2, p3
}

// softmaxRow is the per-row softmax kernel. It is alias-safe (orow may be
// row), which is what lets the fused attention kernel soften its score
// matrix in place.
func softmaxRow(orow, row []float64) {
	maxv := math.Inf(-1)
	for _, v := range row {
		if v > maxv {
			maxv = v
		}
	}
	// Four elements at a time through exp4 (lane results are bitwise
	// expApprox's), summed one by one in ascending order — the exact
	// accumulation sequence of the plain per-element loop.
	var sum float64
	j := 0
	for ; j+4 <= len(row); j += 4 {
		e0, e1, e2, e3 := exp4(row[j]-maxv, row[j+1]-maxv, row[j+2]-maxv, row[j+3]-maxv)
		orow[j], orow[j+1], orow[j+2], orow[j+3] = e0, e1, e2, e3
		sum += e0
		sum += e1
		sum += e2
		sum += e3
	}
	for ; j < len(row); j++ {
		e := expApprox(row[j] - maxv)
		orow[j] = e
		sum += e
	}
	// One division, then a multiply per element. Every consumer of softmax
	// (training and fused inference) funnels through this kernel,
	// so the normalization is bitwise consistent across all paths.
	scaleInPlace(orow, 1/sum)
}

// transposeForward writes the transpose of the m×n src into the n×m dst.
func transposeForward(dst, src []float64, m, n int) {
	for i := 0; i < m; i++ {
		row := src[i*n : (i+1)*n]
		for j, v := range row {
			dst[j*m+i] = v
		}
	}
}

func meanRowsForward(dst, a []float64, m, n int) {
	if m == 0 {
		return
	}
	for i := 0; i < m; i++ {
		row := a[i*n : (i+1)*n]
		for j, v := range row {
			dst[j] += v
		}
	}
	inv := 1 / float64(m)
	for j := range dst {
		dst[j] *= inv
	}
}

// gatherAddForward accumulates table rows into dst: dst[i,:] += table[idx,:],
// the gatherForward copy and the Add sum in one pass.
func gatherAddForward(dst, table []float64, indices []int, tableRows, cols int) {
	for i, idx := range indices {
		if idx < 0 || idx >= tableRows {
			panic(fmt.Sprintf("nn: GatherAddInto index %d out of range [0,%d)", idx, tableRows))
		}
		addInto(dst[i*cols:(i+1)*cols], table[idx*cols:(idx+1)*cols])
	}
}

func gatherForward(dst, table []float64, indices []int, tableRows, cols int) {
	for i, idx := range indices {
		if idx < 0 || idx >= tableRows {
			panic(fmt.Sprintf("nn: Gather index %d out of range [0,%d)", idx, tableRows))
		}
		copy(dst[i*cols:(i+1)*cols], table[idx*cols:(idx+1)*cols])
	}
}

// scatterMeanForward aggregates src rows into dst buckets and records the
// per-bucket counts (len(counts) buckets; counts must be zeroed — training
// keeps it for the backward pass).
func scatterMeanForward(dst, counts, src []float64, dstIdx []int, cols int) {
	dstRows := len(counts)
	for i, d := range dstIdx {
		if d < 0 || d >= dstRows {
			panic(fmt.Sprintf("nn: ScatterMean destination %d out of range [0,%d)", d, dstRows))
		}
		counts[d]++
		srow := src[i*cols : (i+1)*cols]
		orow := dst[d*cols : (d+1)*cols]
		for j := range srow {
			orow[j] += srow[j]
		}
	}
	for d := 0; d < dstRows; d++ {
		if counts[d] > 1 {
			orow := dst[d*cols : (d+1)*cols]
			inv := 1 / counts[d]
			for j := range orow {
				orow[j] *= inv
			}
		}
	}
}

func concatForward(dst []float64, ts []*Tensor, rows, cols int) {
	off := 0
	for _, t := range ts {
		c := t.Shape[1]
		for i := 0; i < rows; i++ {
			copy(dst[i*cols+off:i*cols+off+c], t.Data[i*c:(i+1)*c])
		}
		off += c
	}
}

func concatRowsForward(dst []float64, ts []*Tensor) {
	off := 0
	for _, t := range ts {
		copy(dst[off:off+len(t.Data)], t.Data)
		off += len(t.Data)
	}
}

func repeatEachRowForward(dst, src []float64, m, n, times int) {
	for i := 0; i < m; i++ {
		row := src[i*n : (i+1)*n]
		for r := 0; r < times; r++ {
			copy(dst[(i*times+r)*n:(i*times+r+1)*n], row)
		}
	}
}

func tileRowsForward(dst, src []float64, m, n, times int) {
	for r := 0; r < times; r++ {
		copy(dst[r*m*n:(r+1)*m*n], src)
	}
}

// maxPerGroupForward reduces groups of `per` consecutive values to their
// maximum; argmax (len groups) records the winning indices when non-nil.
func maxPerGroupForward(dst []float64, argmax []int, a []float64, groups, per int) {
	for g := 0; g < groups; g++ {
		best := g * per
		for i := g*per + 1; i < (g+1)*per; i++ {
			if a[i] > a[best] {
				best = i
			}
		}
		if argmax != nil {
			argmax[g] = best
		}
		dst[g] = a[best]
	}
}

// rowMean and rowVariance are the per-row statistics kernels shared by
// layerNormForward and the fused addLayerNormForward — one implementation
// is what keeps the two bit-identical. Both use the matmul lane discipline:
// four interleaved accumulators over the len&^3 prefix, reduced
// (l0+l1)+(l2+l3), then an ascending tail (with math.FMA for the squared
// deviations, one rounding per step, matching dotScalar's arithmetic).

func rowMean(row []float64) float64 {
	var s0, s1, s2, s3 float64
	n4 := len(row) &^ 3
	for p := 0; p < n4; p += 4 {
		s0 += row[p]
		s1 += row[p+1]
		s2 += row[p+2]
		s3 += row[p+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for p := n4; p < len(row); p++ {
		s += row[p]
	}
	return s / float64(len(row))
}

func rowVariance(row []float64, mean float64) float64 {
	var s0, s1, s2, s3 float64
	n4 := len(row) &^ 3
	for p := 0; p < n4; p += 4 {
		d0 := row[p] - mean
		d1 := row[p+1] - mean
		d2 := row[p+2] - mean
		d3 := row[p+3] - mean
		s0 = math.FMA(d0, d0, s0)
		s1 = math.FMA(d1, d1, s1)
		s2 = math.FMA(d2, d2, s2)
		s3 = math.FMA(d3, d3, s3)
	}
	s := (s0 + s1) + (s2 + s3)
	for p := n4; p < len(row); p++ {
		d := row[p] - mean
		s = math.FMA(d, d, s)
	}
	return s / float64(len(row))
}

// layerNormForward normalizes each row of the m×n x and applies the learned
// affine (gamma, beta). means and invStds (len m) record the per-row
// statistics when non-nil — training keeps them for the backward pass.
func layerNormForward(dst, x, gamma, beta []float64, m, n int, eps float64, means, invStds []float64) {
	for i := 0; i < m; i++ {
		row := x[i*n : (i+1)*n]
		mean := rowMean(row)
		invStd := 1 / math.Sqrt(rowVariance(row, mean)+eps)
		if means != nil {
			means[i], invStds[i] = mean, invStd
		}
		for j, v := range row {
			dst[i*n+j] = float64((v-mean)*invStd*gamma[j]) + beta[j]
		}
	}
}

// Shape checks shared by the training and inference front ends.

func checkMatMul(a, b *Tensor) (m, k, n int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("nn: MatMul shape mismatch %v × %v", a.Shape, b.Shape))
	}
	return a.Shape[0], a.Shape[1], b.Shape[1]
}

func checkSameShape(op string, a, b *Tensor) {
	if !sameShape(a, b) {
		panic(fmt.Sprintf("nn: %s shape mismatch %v vs %v", op, a.Shape, b.Shape))
	}
}

func checkRowVector(a, v *Tensor) (m, n int) {
	n = a.Shape[len(a.Shape)-1]
	if len(a.Shape) != 2 || v.Size() != n {
		panic(fmt.Sprintf("nn: AddRowVector shape mismatch %v + %v", a.Shape, v.Shape))
	}
	return a.Shape[0], n
}

func checkConcat(ts []*Tensor) (rows, cols int) {
	if len(ts) == 0 {
		panic("nn: Concat of nothing")
	}
	rows = ts[0].Shape[0]
	for _, t := range ts {
		if len(t.Shape) != 2 || t.Shape[0] != rows {
			panic("nn: Concat requires 2D tensors with equal row counts")
		}
		cols += t.Shape[1]
	}
	return rows, cols
}

func checkConcatRows(ts []*Tensor) (rows, cols int) {
	if len(ts) == 0 {
		panic("nn: ConcatRows of nothing")
	}
	cols = ts[0].Shape[1]
	for _, t := range ts {
		if len(t.Shape) != 2 || t.Shape[1] != cols {
			panic("nn: ConcatRows requires 2D tensors with equal column counts")
		}
		rows += t.Shape[0]
	}
	return rows, cols
}

func checkMaxPerGroup(a *Tensor, groups, per int) {
	if len(a.Shape) != 2 || a.Shape[1] != 1 || a.Shape[0] != groups*per {
		panic(fmt.Sprintf("nn: MaxPerGroup shape %v incompatible with %d groups of %d", a.Shape, groups, per))
	}
}
