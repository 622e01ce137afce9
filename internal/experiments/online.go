package experiments

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"github.com/repro/snowplow/internal/cluster"
	"github.com/repro/snowplow/internal/fuzzer"
	"github.com/repro/snowplow/internal/obs"
	"github.com/repro/snowplow/internal/online"
	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/serve"
)

// OnlineRow is one campaign of the online-vs-frozen ablation.
type OnlineRow struct {
	Name       string
	FinalEdges int
	CorpusSize int
	Crashes    int
	// Retrains/Swaps/Skipped/ModelVersion trace the continual-learning
	// schedule (all zero for the frozen row).
	Retrains     int64
	Swaps        int64
	Skipped      int64
	ModelVersion int64
	WallMs       int64
	// CorpusDigest and JournalDigest fingerprint the determinism-guaranteed
	// observables (the replay row must reproduce the online row's exactly).
	CorpusDigest  string
	JournalDigest string
}

// OnlineResult is the online continual-learning ablation
// (BENCH_online.json): the same campaign budget spent on a frozen
// launch-time model versus one that retrains on its own corpus and
// hot-swaps checkpoints at epoch barriers, plus a same-seed replay of the
// online campaign proving the swap schedule is deterministic.
//
// Both rows launch from a cold (untrained) model — the cold-start shape is
// where continual learning must carry its weight: the frozen row stays cold
// for the whole budget, the online row bootstraps itself from its own
// corpus. (From a well-trained launch model the validation gate correctly
// skips small-harvest candidates and the rows converge, which measures the
// gate, not the learning.)
type OnlineResult struct {
	VMs    int
	Budget int64
	Seed   uint64
	// Schedule is the normalized retrain cadence the online rows ran.
	Schedule online.Config
	Frozen   OnlineRow
	Online   OnlineRow
	// EdgeLift is Online.FinalEdges / Frozen.FinalEdges.
	EdgeLift float64
	// ReplayIdentical reports whether the online campaign's second same-seed
	// run reproduced its corpus and journal digests bit-for-bit — with at
	// least one applied swap in between, the paper's continual-learning
	// determinism claim.
	ReplayIdentical bool
}

// Online runs the continual-learning ablation: frozen vs online at equal
// budget, then a replay of the online campaign for the determinism check.
func Online(h *Harness) OnlineResult {
	opts := h.Opts
	k := h.Kernel("6.8")
	an := h.Analysis("6.8")
	m := pmm.NewModel(rng.New(opts.Seed+0xc01d), pmm.DefaultConfig(), pmm.BuildVocab(k))
	var ckpt bytes.Buffer
	if err := m.Save(&ckpt); err != nil {
		panic(err)
	}
	vms := opts.VMs
	if vms <= 0 {
		vms = 4
	}
	sched := online.Config{
		Every:            4,
		Lag:              2,
		MinCorpus:        4,
		MutationsPerBase: 8,
		TrainEpochs:      2,
		TrainBatch:       opts.TrainBatch,
	}.Normalized()

	run := func(name string, oc *online.Config) OnlineRow {
		h.logf("online ablation: %s campaign...\n", name)
		cm, err := pmm.Load(bytes.NewReader(ckpt.Bytes()))
		if err != nil {
			panic(err)
		}
		srv := serve.NewServerOpts(cm, qgraph.NewBuilder(k, an), serve.Options{Workers: opts.Workers})
		defer srv.Close()
		jn := obs.NewJournal(0)
		cfg := fuzzer.Config{
			Mode: fuzzer.ModeSnowplow, Kernel: k, An: an,
			Seed: opts.Seed, Budget: opts.FuzzBudget, VMs: vms,
			SeedCorpus: seedPrograms(h, "6.8", opts.Seed),
			Server:     srv, Journal: jn,
			Online: oc,
		}
		start := time.Now()
		f := fuzzer.New(cfg)
		stats := mustRun(f)
		return OnlineRow{
			Name:          name,
			FinalEdges:    stats.FinalEdges,
			CorpusSize:    stats.CorpusSize,
			Crashes:       len(stats.Crashes),
			Retrains:      stats.ModelRetrains,
			Swaps:         stats.ModelSwaps,
			Skipped:       stats.ModelSwapsSkipped,
			ModelVersion:  stats.ModelVersion,
			WallMs:        time.Since(start).Milliseconds(),
			CorpusDigest:  cluster.CorpusDigest(f.Corpus()),
			JournalDigest: cluster.JournalDigest(jn.Events()),
		}
	}

	res := OnlineResult{VMs: vms, Budget: opts.FuzzBudget, Seed: opts.Seed, Schedule: sched}
	res.Frozen = run("frozen", nil)
	res.Online = run("online", &sched)
	if res.Frozen.FinalEdges > 0 {
		res.EdgeLift = float64(res.Online.FinalEdges) / float64(res.Frozen.FinalEdges)
	}
	replay := run("online-replay", &sched)
	res.ReplayIdentical = replay.CorpusDigest == res.Online.CorpusDigest &&
		replay.JournalDigest == res.Online.JournalDigest &&
		res.Online.Swaps > 0
	return res
}

// Render prints the online-vs-frozen table.
func (r OnlineResult) Render(w io.Writer) {
	fmt.Fprintf(w, "== Online continual learning (VMs=%d, budget=%d, retrain every %d barriers, lag %d) ==\n",
		r.VMs, r.Budget, r.Schedule.Every, r.Schedule.Lag)
	fmt.Fprintf(w, "%-8s %8s %8s %8s %9s %6s %8s %8s %6s\n",
		"model", "edges", "corpus", "crashes", "retrains", "swaps", "skipped", "version", "wall")
	for _, row := range []OnlineRow{r.Frozen, r.Online} {
		fmt.Fprintf(w, "%-8s %8d %8d %8d %9d %6d %8d %8d %4dms\n",
			row.Name, row.FinalEdges, row.CorpusSize, row.Crashes,
			row.Retrains, row.Swaps, row.Skipped, row.ModelVersion, row.WallMs)
	}
	fmt.Fprintf(w, "edge lift %.3fx; same-seed replay identical (>=1 swap): %v\n", r.EdgeLift, r.ReplayIdentical)
	fmt.Fprintf(w, "(digests: corpus=%s journal=%s)\n", r.Online.CorpusDigest, r.Online.JournalDigest)
}
