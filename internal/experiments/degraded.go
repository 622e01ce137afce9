package experiments

import (
	"fmt"
	"io"

	"github.com/repro/snowplow/internal/faultinject"
	"github.com/repro/snowplow/internal/fuzzer"
	"github.com/repro/snowplow/internal/serve"
)

// FaultSweep is the degraded-serving ablation, mirroring the paper's
// fallback ablation (§3.4): Snowplow campaigns against an inference server
// with increasing injected fault rates, with the Syzkaller baseline as the
// floor. Graceful degradation means coverage slides toward — but not below —
// the baseline as the fault rate approaches 1.0, because every query whose
// retries are exhausted leaves its base to random localization. Faults are
// planned on each query's campaign key, so every rate repeats per seed.
type FaultSweep struct {
	// Rates scale the fault shape; rate 0 is healthy serving.
	Rates []float64
	// Edges is Snowplow's final edge coverage per rate.
	Edges []int
	// Failed and Shed are the per-rate robustness counters.
	Failed []int64
	Shed   []int64
	// BaselineEdges is the Syzkaller run's final coverage (same seed and
	// seed corpus).
	BaselineEdges int
	// Shape is the swept fault model at rate 1.0.
	Shape *faultinject.Model
}

// AblationFaultSweep runs short campaigns across injected fault rates.
func AblationFaultSweep(h *Harness) FaultSweep {
	k := h.Kernel("6.8")
	an := h.Analysis("6.8")
	budget := h.Opts.FuzzBudget / 4
	seeds := seedPrograms(h, "6.8", h.Opts.Seed)

	shape := h.Opts.FaultModel
	if shape == nil {
		shape = &faultinject.Model{
			DropProb:      0.4,
			TransientProb: 0.3,
			CorruptProb:   0.2,
		}
	}

	h.logf("fault sweep: syzkaller baseline...\n")
	baseline := mustRun(fuzzer.New(fuzzer.Config{
		Mode: fuzzer.ModeSyzkaller, Kernel: k, An: an,
		Seed: h.Opts.Seed, Budget: budget,
		SeedCorpus: seeds,
	}))

	sweep := FaultSweep{
		Rates:         []float64{0, 0.25, 0.5, 0.75, 0.95},
		BaselineEdges: baseline.FinalEdges,
		Shape:         shape,
	}
	for i, rate := range sweep.Rates {
		h.logf("fault sweep: rate %.2f...\n", rate)
		model := shape.Scale(rate)
		model.Seed = h.Opts.Seed + uint64(i)*0xfa017
		var fault faultinject.Injector
		if model.Enabled() {
			fault = model
		}
		srv := h.ServerOpts("6.8", serve.Options{Fault: fault})
		stats := mustRun(fuzzer.New(fuzzer.Config{
			Mode: fuzzer.ModeSnowplow, Kernel: k, An: an,
			Seed: h.Opts.Seed, Budget: budget,
			SeedCorpus: seeds,
			Server:     srv,
		}))
		srv.Close()
		sweep.Edges = append(sweep.Edges, stats.FinalEdges)
		sweep.Failed = append(sweep.Failed, stats.PMMFailed)
		sweep.Shed = append(sweep.Shed, stats.PMMShed)
	}
	return sweep
}

// Render prints the sweep next to the baseline floor.
func (s FaultSweep) Render(w io.Writer) {
	fmt.Fprintf(w, "degraded-serving sweep (fault shape %s; syzkaller floor %d edges):\n",
		s.Shape, s.BaselineEdges)
	for i, rate := range s.Rates {
		delta := 0.0
		if s.BaselineEdges > 0 {
			delta = 100 * float64(s.Edges[i]-s.BaselineEdges) / float64(s.BaselineEdges)
		}
		fmt.Fprintf(w, "  rate=%.2f: %6d edges (%+.1f%% vs baseline)  failed=%d shed=%d\n",
			rate, s.Edges[i], delta, s.Failed[i], s.Shed[i])
	}
}
