package nn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"github.com/repro/snowplow/internal/rng"
)

// TestQuantizeRoundTripBound is the quantization error property test: every
// finite weight must dequantize within Scale/2 of its original value.
func TestQuantizeRoundTripBound(t *testing.T) {
	r := rng.New(71)
	cases := []*Tensor{
		benchTensor(r, 24, 24),
		benchTensor(r, 1, 64),
		benchTensor(r, 100, 7),
	}
	// Adversarial ranges: huge spread, tiny spread, asymmetric.
	wide := New(8, 8)
	for i := range wide.Data {
		wide.Data[i] = (r.Float64() - 0.5) * 1e6
	}
	tiny := New(8, 8)
	for i := range tiny.Data {
		tiny.Data[i] = 1 + r.Float64()*1e-9
	}
	skew := New(8, 8)
	for i := range skew.Data {
		skew.Data[i] = r.Float64()*10 - 9.99
	}
	cases = append(cases, wide, tiny, skew)

	for ci, x := range cases {
		q := QuantizeTensor(x)
		bound := q.Scale/2 + q.Scale*1e-9
		deq := make([]float64, x.Size())
		q.Dequantize(deq)
		for i, v := range x.Data {
			if d := math.Abs(v - deq[i]); d > bound {
				t.Fatalf("case %d: element %d error %g exceeds Scale/2 = %g (scale %g)", ci, i, d, q.Scale/2, q.Scale)
			}
		}
	}
}

// TestQuantizeConstantAndEmpty pins the degenerate encodings: constant
// tensors are exact, all-zero tensors are exact, NaN-only tensors encode
// zeros with a sane scale.
func TestQuantizeConstantAndEmpty(t *testing.T) {
	c := New(4, 4)
	for i := range c.Data {
		c.Data[i] = -3.75
	}
	q := QuantizeTensor(c)
	deq := make([]float64, c.Size())
	q.Dequantize(deq)
	for i, v := range deq {
		if v != -3.75 {
			t.Fatalf("constant tensor not exact at %d: %g", i, v)
		}
	}

	z := New(4, 4)
	qz := QuantizeTensor(z)
	qz.Dequantize(deq)
	for i, v := range deq {
		if v != 0 {
			t.Fatalf("zero tensor not exact at %d: %g", i, v)
		}
	}

	nan := New(2, 2)
	for i := range nan.Data {
		nan.Data[i] = math.NaN()
	}
	qn := QuantizeTensor(nan)
	if qn.Scale <= 0 || math.IsNaN(qn.Scale) {
		t.Fatalf("NaN tensor produced scale %g", qn.Scale)
	}
}

// quantTestModel builds a frozen attention+MLP stack with a named parameter
// map, the shape the quantization registry operates on.
func quantTestModel(r *rng.Rand) (*SelfAttention, *MLP, map[string]*Tensor) {
	sa := NewSelfAttention(r, 16)
	mlp := NewMLP(r, 16, 48, 1)
	params := map[string]*Tensor{
		"sa.q.w": sa.Q.W, "sa.q.b": sa.Q.B,
		"sa.k.w": sa.K.W, "sa.k.b": sa.K.B,
		"sa.v.w": sa.V.W, "sa.v.b": sa.V.B,
		"sa.out.w": sa.Out.W, "sa.out.b": sa.Out.B,
		"sa.norm.gamma": sa.Norm.Gamma, "sa.norm.beta": sa.Norm.Beta,
		"mlp.0.w": mlp.Layers[0].W, "mlp.0.b": mlp.Layers[0].B,
		"mlp.1.w": mlp.Layers[1].W, "mlp.1.b": mlp.Layers[1].B,
	}
	for _, p := range params {
		p.UnrequireGrad()
	}
	return sa, mlp, params
}

func refreshFusedCaches(sa *SelfAttention, mlp *MLP) {
	for _, l := range []*Linear{sa.Q, sa.K, sa.V, sa.Out} {
		l.FreezeFused()
	}
	for _, l := range mlp.Layers {
		l.FreezeFused()
	}
}

// TestQuantSerializeRoundTrip checks the SNPQ0001 checkpoint: byte-stable
// encode, and a load into a fresh model that reproduces both the registry
// and the dequantized float64 weights bit for bit.
func TestQuantSerializeRoundTrip(t *testing.T) {
	_, _, params := quantTestModel(rng.New(83))
	qz := QuantizeParams(params, QuantMinSize)
	if qz["sa.q.b"] != nil || qz["sa.norm.gamma"] != nil {
		t.Fatal("small tensors must not be quantized")
	}
	if qz["sa.q.w"] == nil || qz["mlp.0.w"] == nil {
		t.Fatal("weight matrices must be quantized")
	}
	if err := qz.ApplyDequantized(params); err != nil {
		t.Fatal(err)
	}

	var buf1, buf2 bytes.Buffer
	if err := SaveQuantParams(&buf1, params, qz); err != nil {
		t.Fatal(err)
	}
	if err := SaveQuantParams(&buf2, params, qz); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("quant checkpoint encoding is not byte-stable")
	}

	_, _, params2 := quantTestModel(rng.New(9999))
	qz2, err := LoadParamsAuto(bytes.NewReader(buf1.Bytes()), params2)
	if err != nil {
		t.Fatal(err)
	}
	if len(qz2) != len(qz) {
		t.Fatalf("loaded registry has %d tensors, want %d", len(qz2), len(qz))
	}
	for name, t1 := range params {
		t2 := params2[name]
		for i := range t1.Data {
			if t1.Data[i] != t2.Data[i] {
				t.Fatalf("parameter %q differs after round trip at %d", name, i)
			}
		}
		q1, q2 := qz[name], qz2[name]
		if (q1 == nil) != (q2 == nil) {
			t.Fatalf("parameter %q quantization presence differs", name)
		}
		if q1 != nil {
			if q1.Scale != q2.Scale || q1.Zero != q2.Zero || !bytes.Equal(int8Bytes(q1.Data), int8Bytes(q2.Data)) {
				t.Fatalf("parameter %q quantized record differs", name)
			}
		}
	}

	// A float64 checkpoint through LoadParamsAuto behaves like LoadParams.
	var fbuf bytes.Buffer
	if err := SaveParams(&fbuf, params); err != nil {
		t.Fatal(err)
	}
	_, _, params3 := quantTestModel(rng.New(777))
	qz3, err := LoadParamsAuto(bytes.NewReader(fbuf.Bytes()), params3)
	if err != nil {
		t.Fatal(err)
	}
	if qz3 != nil {
		t.Fatal("float64 checkpoint produced a quantization registry")
	}
	for name, t1 := range params {
		for i := range t1.Data {
			if params3[name].Data[i] != t1.Data[i] {
				t.Fatalf("parameter %q differs after f64 auto-load at %d", name, i)
			}
		}
	}
}

// reshapeRecord returns ckpt with the named record's rank and dimensions
// replaced by shape, its payload untouched: a record that claims a shape the
// bytes after it were not written for.
func reshapeRecord(tb testing.TB, ckpt []byte, name string, shape ...uint32) []byte {
	tb.Helper()
	key := binary.LittleEndian.AppendUint32(nil, uint32(len(name)))
	key = append(key, name...)
	at := bytes.Index(ckpt, key)
	if at < 0 {
		tb.Fatalf("checkpoint has no record %q", name)
	}
	at += len(key)
	rank := int(binary.LittleEndian.Uint32(ckpt[at:]))
	out := append([]byte(nil), ckpt[:at]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(shape)))
	for _, d := range shape {
		out = binary.LittleEndian.AppendUint32(out, d)
	}
	return append(out, ckpt[at+4+4*rank:]...)
}

// Shapes the decoder must refuse although their element count is the
// model's. transposedShape swaps mlp.0.w's [16,48]; wrappingShape multiplies
// out to 2^65+256, which a 64-bit product wraps to sa.q.w's 16·16.
var (
	transposedShape = []uint32{48, 16}
	wrappingShape   = []uint32{256, 9, 571, 174763, 160465489}
)

// TestLoadRefusesShapeMismatch pins the decoder's shape check in both
// formats: a record is accepted only when its rank and every dimension are
// the model tensor's, not when the element counts merely agree.
func TestLoadRefusesShapeMismatch(t *testing.T) {
	_, _, params := quantTestModel(rng.New(85))
	qz := QuantizeParams(params, QuantMinSize)
	var f64, mixed bytes.Buffer
	if err := SaveParams(&f64, params); err != nil {
		t.Fatal(err)
	}
	if err := SaveQuantParams(&mixed, params, qz); err != nil {
		t.Fatal(err)
	}
	for format, ckpt := range map[string][]byte{magic: f64.Bytes(), quantMagic: mixed.Bytes()} {
		for _, c := range []struct {
			what, name string
			shape      []uint32
		}{
			{"transposed", "mlp.0.w", transposedShape},
			{"wrapping product", "sa.q.w", wrappingShape},
			{"flattened", "sa.q.w", []uint32{256}},
			{"scalar", "sa.q.w", nil},
		} {
			_, _, target := quantTestModel(rng.New(86))
			before := append([]float64(nil), target[c.name].Data...)
			_, err := LoadParamsAuto(bytes.NewReader(reshapeRecord(t, ckpt, c.name, c.shape...)), target)
			var se *ShapeError
			if !errors.As(err, &se) || se.Name != c.name {
				t.Fatalf("%s, %s shape: got error %v, want a *ShapeError for %q", format, c.what, err, c.name)
			}
			for i, v := range target[c.name].Data {
				if math.Float64bits(v) != math.Float64bits(before[i]) {
					t.Fatalf("%s, %s shape: refused record still wrote element %d", format, c.what, i)
				}
			}
		}
		// The untouched checkpoint still loads.
		_, _, target := quantTestModel(rng.New(86))
		if _, err := LoadParamsAuto(bytes.NewReader(ckpt), target); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
	}
}

func int8Bytes(s []int8) []byte {
	b := make([]byte, len(s))
	for i, v := range s {
		b[i] = byte(v)
	}
	return b
}

// FuzzQuantSerialize hammers the mixed-precision decoder with corrupt
// checkpoints; it must error or succeed, never panic or over-allocate.
func FuzzQuantSerialize(f *testing.F) {
	r := rng.New(89)
	_, _, params := quantTestModel(r)
	qz := QuantizeParams(params, QuantMinSize)
	var seed bytes.Buffer
	if err := SaveQuantParams(&seed, params, qz); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	var fseed bytes.Buffer
	if err := SaveParams(&fseed, params); err != nil {
		f.Fatal(err)
	}
	f.Add(fseed.Bytes())
	f.Add([]byte("SNPQ0001"))
	f.Add([]byte{})
	f.Add(reshapeRecord(f, seed.Bytes(), "mlp.0.w", transposedShape...))
	f.Add(reshapeRecord(f, seed.Bytes(), "sa.q.w", wrappingShape...))

	_, _, target := quantTestModel(rng.New(91))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = LoadParamsAuto(bytes.NewReader(data), target)
	})
}
