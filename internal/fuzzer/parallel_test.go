package fuzzer

import (
	"reflect"
	"testing"

	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/serve"
)

// zeroQueueWait clears the only field the determinism guarantee excludes,
// so full-struct comparisons work: per-VM queue waits are wall clock.
// Everything else — including the graph-cache hit/miss split, which the
// campaign-side LRU simulation pins to reconcile order — must be
// bit-identical.
func zeroQueueWait(s *Stats) *Stats {
	for i := range s.VMs {
		s.VMs[i].QueueWaitNs = 0
	}
	return s
}

func runFleetCampaign(t *testing.T, cfg Config) (*Stats, *Fuzzer) {
	t.Helper()
	f := New(cfg)
	stats, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	return stats, f
}

// TestParallelSingleVMMatchesDefault pins that VMs=0 means one VM: setting
// VMs=1 explicitly must change nothing but the wall-clock barrier wait.
func TestParallelSingleVMMatchesDefault(t *testing.T) {
	a, _ := runFleetCampaign(t, baselineConfig(31, 150_000))
	cfg := baselineConfig(31, 150_000)
	cfg.VMs = 1
	b, _ := runFleetCampaign(t, cfg)
	if !reflect.DeepEqual(zeroQueueWait(a), zeroQueueWait(b)) {
		t.Fatal("VMs=1 campaign diverged from the default campaign")
	}
}

// TestParallelReproducibleSyzkaller is the fleet determinism guarantee: a
// 4-VM campaign must reproduce bit-for-bit (modulo the wall-clock
// QueueWaitNs counter) across runs with the same seed, regardless of how
// the runtime schedules the VM goroutines.
func TestParallelReproducibleSyzkaller(t *testing.T) {
	cfg := baselineConfig(32, 300_000)
	cfg.VMs = 4
	a, fa := runFleetCampaign(t, cfg)
	cfg2 := baselineConfig(32, 300_000)
	cfg2.VMs = 4
	b, fb := runFleetCampaign(t, cfg2)
	if !reflect.DeepEqual(zeroQueueWait(a), zeroQueueWait(b)) {
		t.Fatalf("4-VM campaign not reproducible:\nrun1: edges=%d execs=%d corpus=%d crashes=%d\nrun2: edges=%d execs=%d corpus=%d crashes=%d",
			a.FinalEdges, a.Executions, a.CorpusSize, len(a.Crashes),
			b.FinalEdges, b.Executions, b.CorpusSize, len(b.Crashes))
	}
	ea, eb := fa.Corpus().Entries(), fb.Corpus().Entries()
	if len(ea) != len(eb) {
		t.Fatalf("corpus sizes differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i].Text != eb[i].Text {
			t.Fatalf("corpus entry %d differs:\n%s\nvs\n%s", i, ea[i].Text, eb[i].Text)
		}
	}
}

// TestParallelReproducibleSnowplow extends the guarantee to the async
// inference path: prediction replies are harvested only at epoch barriers,
// so the PMM query/prediction schedule must also be a pure function of the
// seed.
func TestParallelReproducibleSnowplow(t *testing.T) {
	run := func() *Stats {
		m := pmm.NewModel(rng.New(77), pmm.DefaultConfig(), pmm.BuildVocab(testKernel))
		srv := serve.NewServerOpts(m, qgraph.NewBuilder(testKernel, testAn).WithCache(256), serve.Options{
			Workers:   2,
			BatchSize: 4,
		})
		defer srv.Close()
		cfg := baselineConfig(33, 300_000)
		cfg.Mode = ModeSnowplow
		cfg.Server = srv
		cfg.VMs = 4
		stats, _ := runFleetCampaign(t, cfg)
		return stats
	}
	a, b := run(), run()
	if a.PMMQueries == 0 {
		t.Fatal("parallel snowplow campaign issued no PMM queries")
	}
	// The simulated hit/miss split is part of the DeepEqual comparison
	// below; its total must also account for exactly one lookup per query.
	if got := a.PMMCacheHits + a.PMMCacheMisses; got != a.PMMQueries {
		t.Fatalf("cache hits+misses = %d, want %d (one lookup per query)", got, a.PMMQueries)
	}
	a, b = zeroQueueWait(a), zeroQueueWait(b)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("4-VM snowplow campaign not reproducible:\nrun1: edges=%d execs=%d queries=%d preds=%d\nrun2: edges=%d execs=%d queries=%d preds=%d",
			a.FinalEdges, a.Executions, a.PMMQueries, a.PMMPredictions,
			b.FinalEdges, b.Executions, b.PMMQueries, b.PMMPredictions)
	}
}

// TestParallelFleetSanity checks the fleet actually fans out: every VM
// executes work, per-VM counters sum to the campaign totals, and coverage
// is in the same regime as a single-VM campaign with the same budget.
func TestParallelFleetSanity(t *testing.T) {
	cfg := baselineConfig(34, 400_000)
	cfg.VMs = 4
	stats, _ := runFleetCampaign(t, cfg)
	if len(stats.VMs) != 4 {
		t.Fatalf("expected 4 VM stat entries, got %d", len(stats.VMs))
	}
	var execs, newEdges int64
	for _, vm := range stats.VMs {
		if vm.Executions == 0 {
			t.Fatalf("VM %d executed nothing", vm.VM)
		}
		if vm.Epochs == 0 {
			t.Fatalf("VM %d ran no epochs", vm.VM)
		}
		execs += vm.Executions
		newEdges += vm.NewEdges
	}
	if execs != stats.Executions {
		t.Fatalf("per-VM executions %d != campaign total %d", execs, stats.Executions)
	}
	if newEdges == 0 {
		t.Fatal("no VM contributed reconciled new edges")
	}
	seq, _ := runFleetCampaign(t, baselineConfig(34, 400_000))
	if stats.FinalEdges < seq.FinalEdges/2 {
		t.Fatalf("parallel coverage collapsed: %d vs single-VM %d", stats.FinalEdges, seq.FinalEdges)
	}
	for i := 1; i < len(stats.Series); i++ {
		if stats.Series[i].Edges < stats.Series[i-1].Edges {
			t.Fatalf("parallel series coverage decreased at %d", i)
		}
	}
}
