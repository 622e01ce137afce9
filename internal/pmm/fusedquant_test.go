package pmm

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/repro/snowplow/internal/nn"
	"github.com/repro/snowplow/internal/rng"
)

// TestPredictFusedBitIdentity checks the fused-kernel forward against the
// plain pooled path: EnableFused must not change a single probability bit,
// across repeated passes and worker counts.
func TestPredictFusedBitIdentity(t *testing.T) {
	defer nn.SetWorkers(1)
	gs := batchGraphs(t, 5, 700)
	m := NewModel(rng.New(8), DefaultConfig(), BuildVocab(testKernel))
	m.Freeze()
	_, want := m.PredictBatch(gs)
	m.EnableFused()
	for _, workers := range []int{1, 4} {
		nn.SetWorkers(workers)
		for pass := 0; pass < 2; pass++ {
			_, got := m.PredictBatch(gs)
			for i := range want {
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("workers=%d pass %d graph %d prob %d: fused %v vs plain %v",
							workers, pass, i, j, got[i][j], want[i][j])
					}
				}
			}
		}
	}
	if m.InferProfile().FusedLinear == 0 {
		t.Fatal("fused forward never hit a fused kernel")
	}
}

// TestQuantCodecReplay is the whole of what int8 means to a served model:
// Quantize leaves every quantized parameter holding exactly Scale·(code−Zero)
// and every other parameter untouched, and the mixed-precision checkpoint
// carries those values — a load yields the same parameter bits and saves
// back to the same bytes. Serving needs nothing else: the kernels read the
// float64 weights, whichever way they got there.
func TestQuantCodecReplay(t *testing.T) {
	m := NewModel(rng.New(9), DefaultConfig(), BuildVocab(testKernel))
	m.Freeze()
	orig := map[string][]float64{}
	for name, p := range m.Params() {
		orig[name] = append([]float64(nil), p.Data...)
	}
	if m.Quantized() {
		t.Fatal("a fresh model reports quantized")
	}
	if err := m.Quantize(); err != nil {
		t.Fatal(err)
	}
	if !m.Quantized() || m.quant["tok_emb.0"] == nil || m.quant["head.0"] == nil || m.quant["head.1"] != nil {
		t.Fatal("Quantize must cover embedding tables and linear weights, not biases")
	}
	for name, p := range m.Params() {
		q := m.quant[name]
		if q == nil {
			if bitDiff(p.Data, orig[name]) >= 0 {
				t.Fatalf("%s is not quantized but Quantize rewrote it", name)
			}
			continue
		}
		for i, v := range p.Data {
			if want := q.Scale * float64(int(q.Data[i])-q.Zero); math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("%s[%d] = %v, its code decodes to %v", name, i, v, want)
			}
			if d := math.Abs(v - orig[name][i]); d > q.Scale/2*(1+1e-9) {
				t.Fatalf("%s[%d] moved by %g, more than Scale/2 = %g", name, i, d, q.Scale/2)
			}
		}
	}

	var ckpt, again bytes.Buffer
	if err := m.SaveQuantized(&ckpt); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(ckpt.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Quantized() {
		t.Fatal("a model loaded from a mixed-precision checkpoint does not report quantized")
	}
	params := m.Params()
	for name, p := range loaded.Params() {
		if i := bitDiff(p.Data, params[name].Data); i >= 0 {
			t.Fatalf("%s[%d] differs after the checkpoint round trip", name, i)
		}
	}
	if err := loaded.SaveQuantized(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), ckpt.Bytes()) {
		t.Fatal("a loaded quantized checkpoint re-saves to different bytes")
	}
}

// TestQuantizedCheckpointRoundTrip checks the mixed-precision model file:
// byte-stable encoding (the cluster model SHA covers the quantized form)
// and a load that reproduces the quantized model's predictions bit for bit
// on the fused path.
func TestQuantizedCheckpointRoundTrip(t *testing.T) {
	gs := batchGraphs(t, 4, 900)
	m := NewModel(rng.New(10), DefaultConfig(), BuildVocab(testKernel))
	m.Freeze()
	if err := m.Quantize(); err != nil {
		t.Fatal(err)
	}
	_, want := m.PredictBatch(gs)

	var buf1, buf2 bytes.Buffer
	if err := m.SaveQuantized(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := m.SaveQuantized(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("quantized checkpoint is not byte-stable")
	}
	var fbuf bytes.Buffer
	if err := m.Save(&fbuf); err != nil {
		t.Fatal(err)
	}
	if len(buf1.Bytes()) >= len(fbuf.Bytes()) {
		t.Fatalf("quantized checkpoint (%d B) not smaller than float64 (%d B)", buf1.Len(), fbuf.Len())
	}

	m2, err := Load(bytes.NewReader(buf1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !m2.Quantized() || len(m2.quant) != len(m.quant) {
		t.Fatal("loaded model lost the quantization registry")
	}
	m2.Freeze()
	m2.EnableFused()
	_, got := m2.PredictBatch(gs)
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("graph %d prob %d: loaded %v vs saved %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// probBitsDigest hashes every probability's float64 bit pattern, graph by
// graph with a length prefix, so a reply that moves one bit moves the digest.
func probBitsDigest(probs [][]float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, ps := range probs {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(ps)))
		h.Write(buf[:])
		for _, p := range ps {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFusedQuantReplyBitsPinned pins, as literals, what a fixed-seed model
// replies at both precisions and what its quantized checkpoint hashes to.
// The literals are the serving contract of -quant: any change to how
// quantized weights are stored, rewritten or served must leave them alone.
// The pinned checkpoint hash makes the bytes below the bytes every earlier
// commit wrote, so loading them is loading an old checkpoint: it must serve
// the same replies and re-save to the same bytes.
func TestFusedQuantReplyBitsPinned(t *testing.T) {
	const (
		wantF64   = "2a9acf07021ad077fb6594779bdb28dcc9cfb7c794607fbfa5f9951e81ed9215"
		wantQuant = "fb4c15fe9806fa1b6a9cba4eff3b330524caab47c7b5b2fc0eecb9d77a18a7fc"
		wantSHA   = "447a11ec32ba45a00c4f256bdb8e828e151550f3f2cdeecdc01bd8e4e66b468c"
	)
	defer nn.SetWorkers(1)
	gs := batchGraphs(t, 5, 800)
	replies := func(what string, m *Model, want string) {
		t.Helper()
		for _, fused := range []bool{false, true} {
			if fused {
				m.EnableFused()
			}
			for _, workers := range []int{1, 4} {
				nn.SetWorkers(workers)
				_, probs := m.PredictBatch(gs)
				if got := probBitsDigest(probs); got != want {
					t.Errorf("%s, fused=%t workers=%d: reply bits hash to %s, pinned %s", what, fused, workers, got, want)
				}
			}
		}
	}
	newModel := func() *Model {
		m := NewModel(rng.New(9), DefaultConfig(), BuildVocab(testKernel))
		m.Freeze()
		return m
	}
	replies("f64", newModel(), wantF64)

	m := newModel()
	if err := m.Quantize(); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := m.SaveQuantized(&ckpt); err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(ckpt.Bytes()); hex.EncodeToString(sum[:]) != wantSHA {
		t.Errorf("SaveQuantized bytes hash to %x, pinned %s", sum, wantSHA)
	}
	replies("quantized", m, wantQuant)

	loaded, err := Load(bytes.NewReader(ckpt.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	loaded.Freeze()
	replies("quantized checkpoint, loaded", loaded, wantQuant)
	var again bytes.Buffer
	if err := loaded.SaveQuantized(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), ckpt.Bytes()) {
		t.Error("a loaded quantized checkpoint re-saves to different bytes")
	}
}

// BenchmarkPredictBatch measures the frozen-model serving hot path on its
// two inference configurations: the unfused float64 baseline and the fused
// kernels (which also serve quantized weights — int8 is a checkpoint codec,
// see DESIGN.md §12).
func BenchmarkPredictBatch(b *testing.B) {
	gs := batchGraphs(b, 6, 1000)
	modes := []struct {
		name  string
		fused bool
	}{
		{"unfused_f64", false},
		{"fused_f64", true},
	}
	nsPerOp := map[string]float64{}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			m := NewModel(rng.New(11), DefaultConfig(), BuildVocab(testKernel))
			m.Freeze()
			if mode.fused {
				m.EnableFused()
			}
			m.PredictBatch(gs) // warm the pool
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				m.PredictBatch(gs)
			}
			nsPerOp[mode.name] = float64(time.Since(start).Nanoseconds()) / float64(b.N)
		})
	}
	if base, ok := nsPerOp["unfused_f64"]; ok {
		if v := nsPerOp["fused_f64"]; v > 0 {
			b.Logf("fused_f64 speedup vs unfused_f64: %.2fx", base/v)
		}
	}
	if dir := os.Getenv("BENCH_JSON"); dir != "" {
		out := map[string]interface{}{
			"benchmark": "BenchmarkPredictBatch", "ns_per_op": nsPerOp,
		}
		if base := nsPerOp["unfused_f64"]; base > 0 {
			speedups := map[string]float64{}
			for name, v := range nsPerOp {
				if v > 0 {
					speedups[name] = base / v
				}
			}
			out["speedup_vs_unfused_f64"] = speedups
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(dir, "BENCH_predictbatch.json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
		b.Logf("wrote %s", path)
	}
}
