package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/repro/snowplow/internal/exec"
	"github.com/repro/snowplow/internal/fuzzer"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/serve"
	"github.com/repro/snowplow/internal/trace"
)

// PerfResult reproduces the §5.5 performance characteristics.
type PerfResult struct {
	// Inference serving at saturation (paper: 57 q/s, 0.69 s latency).
	InferenceQPS     float64
	InferenceLatency time.Duration
	// Fuzzing throughput in tests/second for both modes (paper: 383
	// Snowplow vs 390 Syzkaller — near parity thanks to async inference).
	SnowplowTPS  float64
	SyzkallerTPS float64
	ParityPct    float64 // Snowplow throughput as % of Syzkaller's
}

// Perf measures serving saturation and fuzz-loop throughput.
func Perf(h *Harness) PerfResult {
	var res PerfResult
	res.InferenceQPS, res.InferenceLatency = saturateInference(h)
	res.SyzkallerTPS = fuzzThroughput(h, fuzzer.ModeSyzkaller, nil)
	srv := h.Server("6.8")
	defer srv.Close()
	res.SnowplowTPS = fuzzThroughput(h, fuzzer.ModeSnowplow, srv)
	if res.SyzkallerTPS > 0 {
		res.ParityPct = 100 * res.SnowplowTPS / res.SyzkallerTPS
	}
	return res
}

// saturateInference hammers the server with concurrent clients and
// measures steady-state throughput and latency.
func saturateInference(h *Harness) (float64, time.Duration) {
	k := h.Kernel("6.8")
	srv := h.Server("6.8")
	defer srv.Close()

	q := sampleQuery(h, k)
	const clients = 16
	const perClient = 24
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				srv.Infer(q) //nolint:errcheck // saturation probe
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	st := srv.Stats()
	qps := float64(clients*perClient) / elapsed
	return qps, st.MeanLatency
}

func sampleQuery(h *Harness, k *kernel.Kernel) serve.Query {
	g := prog.NewGenerator(k.Target)
	p := g.Generate(rng.New(h.Opts.Seed+0x9e7f), 4)
	res, err := exec.New(k).Run(p)
	if err != nil {
		panic(err)
	}
	covered := trace.NewBlockSet(trace.BlocksOf(res))
	alts := h.Analysis("6.8").Frontier(covered)
	var targets []kernel.BlockID
	for i, alt := range alts {
		if i >= 8 {
			break
		}
		targets = append(targets, alt.Entry)
	}
	return serve.Query{Prog: p, Traces: res.CallTraces, Targets: targets}
}

// FuzzThroughput measures wall-clock tests/second for both modes (the
// second half of §5.5) without the inference-saturation probe.
func FuzzThroughput(h *Harness) (snowplowTPS, syzkallerTPS float64) {
	syzkallerTPS = fuzzThroughput(h, fuzzer.ModeSyzkaller, nil)
	srv := h.Server("6.8")
	defer srv.Close()
	snowplowTPS = fuzzThroughput(h, fuzzer.ModeSnowplow, srv)
	return snowplowTPS, syzkallerTPS
}

// fuzzThroughput measures wall-clock tests/second for one mode. srv is the
// interface, not *serve.Server, so that the Syzkaller-mode nil stays a nil
// interface in fuzzer.Config (a typed nil pointer there gets its methods
// called).
func fuzzThroughput(h *Harness, mode fuzzer.Mode, srv serve.Inferrer) float64 {
	k := h.Kernel("6.8")
	an := h.Analysis("6.8")
	cfg := fuzzer.Config{
		Mode: mode, Kernel: k, An: an,
		Seed: h.Opts.Seed, Budget: h.Opts.FuzzBudget / 4,
		SeedCorpus: seedPrograms(h, "6.8", h.Opts.Seed),
		Server:     srv,
	}
	start := time.Now()
	stats := mustRun(fuzzer.New(cfg))
	elapsed := time.Since(start).Seconds()
	if elapsed == 0 {
		return 0
	}
	return float64(stats.Executions) / elapsed
}

// SyncAblation compares wall-clock fuzz throughput of the asynchronous
// inference integration against the synchronous ablation (every guided
// round blocks on the model).
type SyncAblation struct {
	AsyncTPS float64
	SyncTPS  float64
}

// AblationSyncInference runs the sync-vs-async throughput comparison.
func AblationSyncInference(h *Harness) SyncAblation {
	k := h.Kernel("6.8")
	an := h.Analysis("6.8")
	var res SyncAblation
	for _, sync := range []bool{false, true} {
		srv := h.Server("6.8")
		cfg := fuzzer.Config{
			Mode: fuzzer.ModeSnowplow, Kernel: k, An: an,
			Seed: h.Opts.Seed, Budget: h.Opts.FuzzBudget / 8,
			SeedCorpus:    seedPrograms(h, "6.8", h.Opts.Seed),
			Server:        srv,
			SyncInference: sync,
		}
		start := time.Now()
		stats := mustRun(fuzzer.New(cfg))
		elapsed := time.Since(start).Seconds()
		srv.Close()
		tps := 0.0
		if elapsed > 0 {
			tps = float64(stats.Executions) / elapsed
		}
		if sync {
			res.SyncTPS = tps
		} else {
			res.AsyncTPS = tps
		}
	}
	return res
}

// Render prints the §5.5 numbers with the paper's alongside.
func (r PerfResult) Render(w io.Writer) {
	fmt.Fprintf(w, "== §5.5 performance characteristics ==\n")
	fmt.Fprintf(w, "inference at saturation: %.0f queries/s, mean latency %v\n", r.InferenceQPS, r.InferenceLatency.Round(time.Microsecond))
	fmt.Fprintf(w, "  (paper: 57 q/s, 0.69 s on 8 L4 GPUs; absolute numbers differ by design)\n")
	fmt.Fprintf(w, "fuzz throughput: snowplow %.0f tests/s vs syzkaller %.0f tests/s (%.0f%% parity)\n",
		r.SnowplowTPS, r.SyzkallerTPS, r.ParityPct)
	fmt.Fprintf(w, "  (paper: 383 vs 390 tests/s — asynchronous inference keeps throughput near parity)\n")
}
