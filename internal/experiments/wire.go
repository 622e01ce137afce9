package experiments

import (
	"fmt"
	"io"
	"net"
	"time"

	"github.com/repro/snowplow/internal/cluster"
	"github.com/repro/snowplow/internal/faultinject"
	"github.com/repro/snowplow/internal/fuzzer"
	"github.com/repro/snowplow/internal/obs"
)

// WirePoint is one worker-count measurement of the WAN-wire experiment.
type WirePoint struct {
	Workers int
	// Epochs is the number of merged barriers, the unit the per-epoch
	// byte costs below are amortized over.
	Epochs int64
	// RawBytes is the compressed fleet's coordinator traffic (tx+rx,
	// headers included) before the flate stage — byte for byte what an
	// uncompressed fleet puts on the wire.
	RawBytes int64
	// WireBytes is the same fleet's actual on-the-wire traffic with frame
	// compression on.
	WireBytes int64
	// Reduction is RawBytes/WireBytes — how much cheaper one epoch's
	// coordinator traffic gets with frame compression.
	Reduction float64
	// Matched reports that every campaign at this worker count reproduced
	// the single-host campaign's digests byte for byte.
	Matched bool
	// ShapedRawWallMs and ShapedFlateWallMs are the wall-clock times of an
	// uncompressed (Compress 0) and a compressed (Compress 6) campaign over
	// a bandwidth/latency-shaped worker link — the WAN stand-in where the
	// byte reduction becomes a time win.
	ShapedRawWallMs   int64
	ShapedFlateWallMs int64
}

// WireResult is the WAN-scale wire experiment (BENCH_wire.json): per-epoch
// coordinator bandwidth before and after frame compression, plus
// wall-clock on a shaped link, at 1, 2 and 4 workers. Determinism is
// asserted throughout — compression must change bytes, never bits.
type WireResult struct {
	VMs    int
	Budget int64
	// BandwidthBytesPerSec and LatencyUs describe the shaped link (per
	// worker, outbound).
	BandwidthBytesPerSec int64
	LatencyUs            int64
	CorpusDigest         string
	Points               []WirePoint
}

// shapedWorkerDial wraps every worker's connection in a bandwidth-shaped
// fault link (worker-side writes: the delta traffic that dominates
// coordinator ingress).
func shapedWorkerDial(bandwidth int64, latency time.Duration) func(string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return faultinject.NewLink(conn, faultinject.LinkOptions{Bandwidth: bandwidth, Latency: latency}), nil
	}
}

// Wire measures what frame compression saves: for each worker count it
// runs a compressed fleet (which must reproduce the single-host digests)
// and prices coordinator bytes per epoch before and after flate, then runs
// an uncompressed and a compressed fleet over a link shaped to a fraction
// of the uncompressed traffic so the byte reduction shows up as
// wall-clock.
func Wire(h *Harness, workerCounts []int) WireResult {
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 4}
	}
	opts := h.Opts
	k := h.Kernel("6.8")
	an := h.Analysis("6.8")
	const vms = 4
	cfg := fuzzer.Config{
		Mode: fuzzer.ModeSyzkaller, Kernel: k, An: an,
		Seed: opts.Seed, Budget: opts.FuzzBudget,
		SeedCorpus: seedPrograms(h, "6.8", opts.Seed), VMs: vms,
	}

	h.logf("wire: single-host baseline...\n")
	jn := obs.NewJournal(0)
	single := cfg
	single.Journal = jn
	f := fuzzer.New(single)
	mustRun(f)
	res := WireResult{
		VMs:          vms,
		Budget:       opts.FuzzBudget,
		CorpusDigest: cluster.CorpusDigest(f.Corpus()),
	}
	wantCover := cluster.CoverDigest(f.Corpus())
	wantJournal := cluster.JournalDigest(jn.Events())
	matches := func(got *cluster.Result) bool {
		return got.CorpusDigest == res.CorpusDigest &&
			got.CoverDigest == wantCover && got.JournalDigest == wantJournal
	}
	spec := cluster.SpecFromConfig(single, nil)
	// run runs one campaign at the given flate level over workers
	// connections dialed by dial (nil = plain loopback).
	run := func(workers, level int, dial func(string) (net.Conn, error)) *cluster.Result {
		got, err := cluster.RunLocal(cluster.Config{Spec: spec, Compress: level}, workers, cluster.WorkerOptions{Dial: dial})
		if err != nil {
			panic(fmt.Sprintf("experiments: wire campaign (%d workers, level %d): %v", workers, level, err))
		}
		return got
	}

	for _, workers := range workerCounts {
		h.logf("wire: %d worker(s), flate...\n", workers)
		flated := run(workers, 6, nil)
		pt := WirePoint{
			Workers:   workers,
			Epochs:    flated.Wire.Epochs,
			RawBytes:  flated.Wire.TxRawBytes + flated.Wire.RxRawBytes,
			WireBytes: flated.Wire.TxWireBytes + flated.Wire.RxWireBytes,
			Matched:   matches(flated),
		}
		if pt.WireBytes > 0 {
			pt.Reduction = float64(pt.RawBytes) / float64(pt.WireBytes)
		}

		// Shape the worker links to a quarter of the uncompressed ingress
		// per second: the uncompressed fleet spends ~4s of aggregate
		// serialization stall, the compressed fleet proportionally less.
		if res.BandwidthBytesPerSec == 0 {
			res.BandwidthBytesPerSec = max(flated.Wire.RxRawBytes/4, 64<<10)
			res.LatencyUs = 200
		}
		dial := shapedWorkerDial(res.BandwidthBytesPerSec, time.Duration(res.LatencyUs)*time.Microsecond)
		h.logf("wire: %d worker(s), shaped link (%d B/s)...\n", workers, res.BandwidthBytesPerSec)
		start := time.Now()
		shapedRaw := run(workers, 0, dial)
		pt.ShapedRawWallMs = time.Since(start).Milliseconds()
		start = time.Now()
		shapedFlate := run(workers, 6, dial)
		pt.ShapedFlateWallMs = time.Since(start).Milliseconds()
		pt.Matched = pt.Matched && matches(shapedRaw) && matches(shapedFlate)
		res.Points = append(res.Points, pt)
	}
	return res
}

// Render prints the WAN-wire bandwidth/wall-clock table.
func (r WireResult) Render(w io.Writer) {
	fmt.Fprintf(w, "== WAN wire: uncompressed vs flate frames (VMs=%d, budget=%d, link %dB/s+%dµs) ==\n",
		r.VMs, r.Budget, r.BandwidthBytesPerSec, r.LatencyUs)
	fmt.Fprintf(w, "%8s %8s %12s %12s %6s %10s %12s %12s\n",
		"workers", "epochs", "raw B/epoch", "wire B/epoch", "gain", "identical", "shaped-raw", "shaped-flate")
	for _, p := range r.Points {
		ep := max(p.Epochs, 1)
		fmt.Fprintf(w, "%8d %8d %12d %12d %5.1fx %10v %10dms %10dms\n",
			p.Workers, p.Epochs, p.RawBytes/ep, p.WireBytes/ep,
			p.Reduction, p.Matched, p.ShapedRawWallMs, p.ShapedFlateWallMs)
	}
	fmt.Fprintf(w, "(gain = raw bytes / wire bytes; identical = every fleet reproduced the single-host digests)\n")
}
