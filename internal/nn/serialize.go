package nn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
)

// magic identifies the snowplow model checkpoint format.
const magic = "SNPW0001"

// quantMagic identifies the mixed-precision checkpoint format: the same
// record layout as SNPW0001 plus a per-record dtype byte, so quantized
// tensors ship as int8 codes with their (scale, zero-point) pair.
const quantMagic = "SNPQ0001"

// Per-record dtype tags in a quantMagic checkpoint.
const (
	dtypeF64  = 0
	dtypeInt8 = 1
)

// SaveParams writes a named set of tensors to w in a simple self-describing
// binary format (magic, count, then name/shape/data records). Names are
// written in sorted order so checkpoints are byte-stable.
func SaveParams(w io.Writer, params map[string]*Tensor) error {
	return saveRecords(w, magic, params, nil)
}

// SaveQuantParams writes a mixed-precision checkpoint: parameters present
// in qz ship as int8 codes with their (scale, zero-point) pair, the rest as
// float64. Names are written in sorted order so checkpoints are byte-stable
// — the cluster's model SHA therefore covers the quantized form directly.
func SaveQuantParams(w io.Writer, params map[string]*Tensor, qz Quantized) error {
	return saveRecords(w, quantMagic, params, qz)
}

// saveRecords writes the format's magic and record stream; under quantMagic
// every record carries a dtype byte and the parameters in qz ship as codes.
func saveRecords(w io.Writer, format string, params map[string]*Tensor, qz Quantized) error {
	if _, err := io.WriteString(w, format); err != nil {
		return err
	}
	names := make([]string, 0, len(params))
	for name := range params {
		names = append(names, name)
	}
	sort.Strings(names)
	if err := binary.Write(w, binary.LittleEndian, uint32(len(names))); err != nil {
		return err
	}
	for _, name := range names {
		t := params[name]
		if err := writeString(w, name); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(len(t.Shape))); err != nil {
			return err
		}
		for _, d := range t.Shape {
			if err := binary.Write(w, binary.LittleEndian, uint32(d)); err != nil {
				return err
			}
		}
		q := qz[name]
		payload := 8 * len(t.Data)
		if q != nil {
			payload = 12 + len(q.Data)
		}
		buf := make([]byte, 0, 1+payload)
		if format == quantMagic {
			dtype := byte(dtypeF64)
			if q != nil {
				dtype = dtypeInt8
			}
			buf = append(buf, dtype)
		}
		if q != nil {
			if q.Size() != t.Size() {
				return fmt.Errorf("nn: quantized parameter %q size mismatch: %d vs %d", name, q.Size(), t.Size())
			}
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(q.Scale))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(q.Zero)))
			for _, c := range q.Data {
				buf = append(buf, byte(c))
			}
		} else {
			for _, v := range t.Data {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// LoadParams reads a checkpoint written by SaveParams into the provided
// tensors. Every checkpoint record must match a tensor of identical shape in
// params, and every tensor in params must be present in the checkpoint.
func LoadParams(r io.Reader, params map[string]*Tensor) error {
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(r, head); err != nil {
		return fmt.Errorf("nn: reading checkpoint header: %w", err)
	}
	if string(head) != magic {
		return errors.New("nn: not a snowplow checkpoint")
	}
	return loadRecords(r, params, nil)
}

// LoadParamsAuto reads either checkpoint format, dispatching on the magic.
// For a float64 (SNPW0001) checkpoint it behaves exactly like LoadParams and
// returns a nil registry. For a mixed (SNPQ0001) checkpoint it loads the
// float64 records, decodes the int8 records into a Quantized registry, and
// writes their *dequantized* values into the float64 tensors — the replay
// invariant, so the loaded model computes exactly what the model that was
// saved computed, and the registry matters only for saving it again.
func LoadParamsAuto(r io.Reader, params map[string]*Tensor) (Quantized, error) {
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("nn: reading checkpoint header: %w", err)
	}
	switch string(head) {
	case magic:
		return nil, loadRecords(r, params, nil)
	case quantMagic:
		qz := Quantized{}
		if err := loadRecords(r, params, qz); err != nil {
			return nil, err
		}
		if len(qz) == 0 {
			return nil, nil
		}
		return qz, nil
	}
	return nil, errors.New("nn: not a snowplow checkpoint")
}

// ShapeError reports a checkpoint record whose shape is not the shape of the
// model tensor it names.
type ShapeError struct {
	Name              string
	Checkpoint, Model []int
}

func (e *ShapeError) Error() string {
	return fmt.Sprintf("nn: parameter %q shape mismatch: checkpoint %v vs model %v", e.Name, e.Checkpoint, e.Model)
}

// loadRecords reads the record stream after the magic. With a non-nil qz
// (the mixed format) each record carries a dtype byte, and int8 records are
// decoded into qz and dequantized into the target tensor.
func loadRecords(r io.Reader, params map[string]*Tensor, qz Quantized) error {
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return err
	}
	loaded := map[string]bool{}
	for i := uint32(0); i < count; i++ {
		name, err := readString(r)
		if err != nil {
			return err
		}
		var ndim uint32
		if err := binary.Read(r, binary.LittleEndian, &ndim); err != nil {
			return err
		}
		if ndim > 8 {
			return fmt.Errorf("nn: parameter %q has unreasonable rank %d", name, ndim)
		}
		dims := make([]uint32, ndim)
		if err := binary.Read(r, binary.LittleEndian, dims); err != nil {
			return err
		}
		t, ok := params[name]
		if !ok {
			return fmt.Errorf("nn: checkpoint has unknown parameter %q", name)
		}
		// Rank and every dimension, not the element count: a count cannot
		// tell [a,b] from [b,a], and a product of unchecked dims can wrap.
		shape := make([]int, ndim)
		for j, d := range dims {
			shape[j] = int(d)
		}
		if !slices.Equal(shape, t.Shape) {
			return &ShapeError{Name: name, Checkpoint: shape, Model: t.Shape}
		}
		size := t.Size()
		if loaded[name] {
			return fmt.Errorf("nn: checkpoint repeats parameter %q", name)
		}
		dtype := byte(dtypeF64)
		if qz != nil {
			var db [1]byte
			if _, err := io.ReadFull(r, db[:]); err != nil {
				return err
			}
			dtype = db[0]
		}
		switch dtype {
		case dtypeF64:
			buf := make([]byte, 8*size)
			if _, err := io.ReadFull(r, buf); err != nil {
				return err
			}
			for j := 0; j < size; j++ {
				t.Data[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[j*8:]))
			}
		case dtypeInt8:
			var head [12]byte
			if _, err := io.ReadFull(r, head[:]); err != nil {
				return err
			}
			scale := math.Float64frombits(binary.LittleEndian.Uint64(head[:8]))
			zero := int(int32(binary.LittleEndian.Uint32(head[8:])))
			if math.IsNaN(scale) || math.IsInf(scale, 0) {
				return fmt.Errorf("nn: parameter %q has non-finite quantization scale", name)
			}
			buf := make([]byte, size)
			if _, err := io.ReadFull(r, buf); err != nil {
				return err
			}
			q := &QuantTensor{
				Shape: append([]int(nil), t.Shape...),
				Scale: scale,
				Zero:  zero,
				Data:  make([]int8, size),
			}
			for j, b := range buf {
				q.Data[j] = int8(b)
			}
			q.Dequantize(t.Data)
			qz[name] = q
		default:
			return fmt.Errorf("nn: parameter %q has unknown dtype %d", name, dtype)
		}
		loaded[name] = true
	}
	for name := range params {
		if !loaded[name] {
			return fmt.Errorf("nn: checkpoint missing parameter %q", name)
		}
	}
	return nil
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", errors.New("nn: unreasonable string length in checkpoint")
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
