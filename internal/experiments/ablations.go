package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/repro/snowplow/internal/dataset"
	"github.com/repro/snowplow/internal/exec"
	"github.com/repro/snowplow/internal/fuzzer"
	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
)

// AblationResult compares the full design against one disabled component.
type AblationResult struct {
	Name    string
	Full    float64 // eval F1 (or other metric) with the component on
	Ablated float64 // with the component off
	Metric  string
	Comment string
}

// Render prints one ablation row.
func (a AblationResult) Render(w io.Writer) {
	fmt.Fprintf(w, "%-28s %s full %.3f vs ablated %.3f — %s\n",
		a.Name, a.Metric, a.Full, a.Ablated, a.Comment)
}

// AblationSwitchEdges drops the kernel-user context-switch edges (the
// paper's key representational idea, §3.2) and retrains.
func AblationSwitchEdges(h *Harness) AblationResult {
	m, _ := h.Model()
	train, val, eval := h.Splits()
	k := h.Kernel("6.8")
	an := h.Analysis("6.8")

	full := pmm.Evaluate(m, qgraph.NewBuilder(k, an), eval).F1

	b := qgraph.NewBuilder(k, an)
	b.DropCtxSwitch = true
	tcfg := pmm.DefaultTrainConfig()
	tcfg.Epochs = h.Opts.TrainEpochs
	tcfg.Seed = h.Opts.Seed
	h.logf("ablation: retraining without context-switch edges...\n")
	m2, _ := pmm.Train(b, pmm.DefaultConfig(), tcfg, train, val)
	ablated := pmm.Evaluate(m2, b, eval).F1
	return AblationResult{
		Name: "kernel-user switch edges", Metric: "eval F1",
		Full: full, Ablated: ablated,
		Comment: "disconnecting program tree from coverage graph removes cross-space reasoning",
	}
}

// AblationTargetNoise retrains with §3.1 design option (a): exact new
// coverage as targets, no distractors.
func AblationTargetNoise(h *Harness) AblationResult {
	m, _ := h.Model()
	_, _, eval := h.Splits()
	k := h.Kernel("6.8")
	an := h.Analysis("6.8")
	b := qgraph.NewBuilder(k, an)
	full := pmm.Evaluate(m, b, eval).F1

	// Re-collect with exact targets on the same bases.
	h.logf("ablation: re-collecting dataset with exact targets...\n")
	g := prog.NewGenerator(k.Target)
	r := rng.New(h.Opts.Seed + 0xda7a)
	bases := make([]*prog.Prog, h.Opts.Bases)
	for i := range bases {
		bases[i] = g.Generate(r, 2+r.Intn(4))
	}
	c := dataset.NewCollector(k, an)
	c.MutationsPerBase = h.Opts.MutationsPerBase
	c.ExactTargets = true
	ds, _ := c.Collect(rng.New(h.Opts.Seed+0xc011), bases)
	train2, val2, _ := ds.Split(0.8, 0.1)
	tcfg := pmm.DefaultTrainConfig()
	tcfg.Epochs = h.Opts.TrainEpochs
	tcfg.Seed = h.Opts.Seed
	m2, _ := pmm.Train(b, pmm.DefaultConfig(), tcfg, train2, val2)
	// Evaluate on the NOISY eval set: robustness to fuzzing-time target
	// uncertainty is exactly what option (c) buys.
	ablated := pmm.Evaluate(m2, b, eval).F1
	return AblationResult{
		Name: "noisy target sets (opt c)", Metric: "eval F1 (noisy targets)",
		Full: full, Ablated: ablated,
		Comment: "training on exact targets loses robustness to target uncertainty",
	}
}

// AblationPopularityCap retrains on a dataset collected without the
// popular-block cap of §3.1 and compares evaluation F1 (over-popular target
// blocks crowd the data with redundant examples).
func AblationPopularityCap(h *Harness) AblationResult {
	m, _ := h.Model()
	_, _, eval := h.Splits()
	k := h.Kernel("6.8")
	an := h.Analysis("6.8")
	b := qgraph.NewBuilder(k, an)
	full := pmm.Evaluate(m, b, eval).F1

	h.logf("ablation: re-collecting dataset without the popularity cap...\n")
	g := prog.NewGenerator(k.Target)
	r := rng.New(h.Opts.Seed + 0xda7a)
	bases := make([]*prog.Prog, h.Opts.Bases)
	for i := range bases {
		bases[i] = g.Generate(r, 3+r.Intn(4))
	}
	c := dataset.NewCollector(k, an)
	c.MutationsPerBase = h.Opts.MutationsPerBase
	c.PopularityCap = 0
	ds, _ := c.Collect(rng.New(h.Opts.Seed+0xc011), bases)
	train2, val2, _ := ds.Split(0.8, 0.1)
	tcfg := pmm.DefaultTrainConfig()
	tcfg.Epochs = h.Opts.TrainEpochs
	tcfg.Seed = h.Opts.Seed
	m2, _ := pmm.Train(b, pmm.DefaultConfig(), tcfg, train2, val2)
	ablated := pmm.Evaluate(m2, b, eval).F1
	return AblationResult{
		Name: "popularity cap", Metric: "eval F1",
		Full: full, Ablated: ablated,
		Comment: "uncapped datasets over-represent popular blocks",
	}
}

// AblationFallback sweeps the Snowplow random-fallback probability and
// reports final coverage per setting.
type FallbackSweep struct {
	Probs []float64
	Edges []int
}

// AblationFallbackSweep runs short Snowplow campaigns at several fallback
// probabilities.
func AblationFallbackSweep(h *Harness) FallbackSweep {
	srv := h.Server("6.8")
	defer srv.Close()
	k := h.Kernel("6.8")
	an := h.Analysis("6.8")
	sweep := FallbackSweep{Probs: []float64{0.05, 0.1, 0.3, 0.6, 0.9}}
	for _, p := range sweep.Probs {
		h.logf("ablation: fallback prob %.2f...\n", p)
		stats := mustRun(fuzzer.New(fuzzer.Config{
			Mode: fuzzer.ModeSnowplow, Kernel: k, An: an,
			Seed: h.Opts.Seed, Budget: h.Opts.FuzzBudget / 4,
			SeedCorpus:   seedPrograms(h, "6.8", h.Opts.Seed),
			Server:       srv,
			FallbackProb: p,
		}))
		sweep.Edges = append(sweep.Edges, stats.FinalEdges)
	}
	return sweep
}

// Render prints the sweep.
func (s FallbackSweep) Render(w io.Writer) {
	fmt.Fprintf(w, "fallback-probability sweep (final edges; higher prob -> closer to baseline):\n")
	for i, p := range s.Probs {
		fmt.Fprintf(w, "  p=%.2f: %d edges\n", p, s.Edges[i])
	}
}

// AblationDeterminism measures label noise introduced by a noisy collection
// environment (§3.1's motivation for snapshots/virtio): the fraction of
// repeated executions of the same base test whose coverage differs.
func AblationDeterminism(h *Harness) AblationResult {
	k := h.Kernel("6.8")
	g := prog.NewGenerator(k.Target)
	r := rng.New(h.Opts.Seed + 0x401e)
	const n = 50
	noisyDiff, cleanDiff := 0, 0
	noisy := exec.New(k).WithNoise(&exec.NoiseModel{Rand: rng.New(3), InterruptProb: 0.3, SharedState: true})
	clean := exec.New(k)
	for i := 0; i < n; i++ {
		p := g.Generate(r, 3)
		if tracesDiffer(clean, p) {
			cleanDiff++
		}
		if tracesDiffer(noisy, p) {
			noisyDiff++
		}
	}
	return AblationResult{
		Name: "determinism engineering", Metric: "coverage-flip rate",
		Full: float64(cleanDiff) / n, Ablated: float64(noisyDiff) / n,
		Comment: "snapshot+sequential execution eliminates trace nondeterminism (full=clean, ablated=noisy)",
	}
}

func tracesDiffer(e *exec.Executor, p *prog.Prog) bool {
	a, err := e.Run(p)
	if err != nil {
		return true
	}
	b, err := e.Run(p)
	if err != nil {
		return true
	}
	if len(a.CallTraces) != len(b.CallTraces) {
		return true
	}
	for i := range a.CallTraces {
		if len(a.CallTraces[i]) != len(b.CallTraces[i]) {
			return true
		}
		for j := range a.CallTraces[i] {
			if a.CallTraces[i][j] != b.CallTraces[i][j] {
				return true
			}
		}
	}
	return false
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
