// Benchmarks for the per-epoch wire hot path: delta encode/decode alone
// and through the full framed path with the flate stage, plus the allocation-budget guard pinning the
// pooled framing layer to zero steady-state allocations. The bench delta is
// sized like a real barrier's: several VMs, dozens of accepted locals,
// traces over nearby basic blocks (which is exactly the shape the varint
// delta encoding and flate both exploit).

package cluster

import (
	"bytes"
	"io"
	"testing"

	"github.com/repro/snowplow/internal/fuzzer"
	"github.com/repro/snowplow/internal/kernel"
)

// benchDeltaMsg builds a deterministic, realistically shaped epoch delta:
// 4 VMs, 8 locals each, 3 traces of 48 nearby blocks per local.
func benchDeltaMsg() DeltaMsg {
	state := uint64(12345)
	next := func(mod int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % mod
	}
	var deltas []fuzzer.VMDelta
	for vm := 0; vm < 4; vm++ {
		d := fuzzer.VMDelta{VM: vm, State: fixtureVMState()}
		d.State.VM = vm
		for l := 0; l < 8; l++ {
			loc := fuzzer.Local{Text: "r0 = open(&(0x7f0000000000), 0x0, 0x0)"}
			for tr := 0; tr < 3; tr++ {
				blocks := make([]kernel.BlockID, 48)
				base := next(4000)
				for i := range blocks {
					base += next(7) // traces walk nearby blocks
					blocks[i] = kernel.BlockID(base)
				}
				loc.Traces = append(loc.Traces, blocks)
			}
			d.Locals = append(d.Locals, loc)
		}
		deltas = append(deltas, d)
	}
	return DeltaMsg{Epoch: 9, Deltas: deltas}
}

func BenchmarkEncodeDelta(b *testing.B) {
	msg := benchDeltaMsg()
	b.Run("codec", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = AppendDelta(buf[:0], msg)
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("flate", func(b *testing.B) {
		var fr framer
		fr.level = 6
		var buf []byte
		var n int
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = AppendDelta(buf[:0], msg)
			var err error
			if n, err = fr.writeFrame(io.Discard, frameDelta, buf); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(n))
	})
}

func BenchmarkDecodeDelta(b *testing.B) {
	msg := benchDeltaMsg()
	b.Run("codec", func(b *testing.B) {
		payload := AppendDelta(nil, msg)
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeDelta(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("flate", func(b *testing.B) {
		// Compression is a per-connection stream, so the decode side cannot
		// replay one recorded frame: each iteration runs the sender too, in
		// lockstep, exactly like a live connection.
		var tx, rx framer
		tx.level = 6
		raw := AppendDelta(nil, msg)
		var frame bytes.Buffer
		var r bytes.Reader
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frame.Reset()
			if _, err := tx.writeFrame(&frame, frameDelta, raw); err != nil {
				b.Fatal(err)
			}
			r.Reset(frame.Bytes())
			_, payload, _, err := rx.readFrame(&r)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := DecodeDelta(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// maxFramingBytesPerOp is the steady-state allocation budget for the framing
// layer — encode into a reused buffer, compress, frame, read back, inflate.
// Every buffer this package owns is pooled, and because both deflate streams
// live for the connection (one Flush per frame, no per-frame Reset), the
// stdlib compressor and decompressor state is built once and reused too. The
// measured cost is single-digit bytes per frame (an occasional Huffman-block
// boundary inside the stream); the budget leaves headroom for stdlib noise
// while still failing on any real pooling regression.
const maxFramingBytesPerOp = 512

func benchWireFramingSteadyState(b *testing.B) {
	msg := benchDeltaMsg()
	var tx, rx framer
	tx.level, rx.level = 6, 6
	var buf []byte
	var frame bytes.Buffer
	var r bytes.Reader
	// One warm round sizes every pooled buffer before measurement. Sender
	// and receiver run in lockstep throughout — streaming compression means
	// a frame only decodes against the window its predecessors built.
	buf = AppendDelta(buf[:0], msg)
	if _, err := tx.writeFrame(&frame, frameDelta, buf); err != nil {
		b.Fatal(err)
	}
	r.Reset(frame.Bytes())
	if _, _, _, err := rx.readFrame(&r); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendDelta(buf[:0], msg)
		frame.Reset()
		if _, err := tx.writeFrame(&frame, frameDelta, buf); err != nil {
			b.Fatal(err)
		}
		r.Reset(frame.Bytes())
		if _, _, _, err := rx.readFrame(&r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireFramingSteadyState(b *testing.B) { benchWireFramingSteadyState(b) }

// TestWireFramingAllocBudget pins the framing hot path to its allocation
// budget, mirroring the serving-path guard: the per-epoch encode/compress/
// frame/read/inflate cycle must not allocate in steady state.
func TestWireFramingAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget measurement in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates the allocation footprint")
	}
	res := testing.Benchmark(benchWireFramingSteadyState)
	if got := res.AllocedBytesPerOp(); got > maxFramingBytesPerOp {
		t.Fatalf("wire framing allocates %d B/op, budget %d (result %s, %s)",
			got, maxFramingBytesPerOp, res.String(), res.MemString())
	}
	t.Logf("wire framing: %s %s (budget %d B/op)", res.String(), res.MemString(), maxFramingBytesPerOp)
}
