// Online continual-learning determinism: a campaign that retrains and
// hot-swaps its model mid-flight must still replay bit-identically per
// seed — stats, corpus, and the journal including the SPMV model_train /
// model_swap records.

package fuzzer

import (
	"reflect"
	"testing"

	"github.com/repro/snowplow/internal/obs"
	"github.com/repro/snowplow/internal/online"
	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/serve"
)

// fastOnline is a schedule aggressive enough to resolve several swaps
// within a small test budget, with retrains kept cheap.
func fastOnline() *online.Config {
	return &online.Config{
		Every:            4,
		Lag:              1,
		MinCorpus:        2,
		MutationsPerBase: 4,
		TrainEpochs:      1,
		TrainBatch:       8,
	}
}

// runOnlineCampaign runs one online campaign from a fresh model and server
// (swaps mutate the server, so nothing is shared between runs).
func runOnlineCampaign(t *testing.T, seed uint64, budget int64, vms int) (*Stats, []obs.Event, []string) {
	t.Helper()
	m := pmm.NewModel(rng.New(77), pmm.DefaultConfig(), pmm.BuildVocab(testKernel))
	srv := serve.NewServerOpts(m, qgraph.NewBuilder(testKernel, testAn), serve.Options{Workers: 2})
	defer srv.Close()
	jn := obs.NewJournal(0)
	cfg := baselineConfig(seed, budget)
	cfg.Mode = ModeSnowplow
	cfg.Server = srv
	cfg.VMs = vms
	cfg.Online = fastOnline()
	cfg.Journal = jn
	f := New(cfg)
	stats, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, e := range f.Corpus().Entries() {
		texts = append(texts, e.Text)
	}
	return stats, jn.Events(), texts
}

// requireOnlineActivity asserts the schedule actually fired: at least one
// retrain kicked off and at least one swap resolved (applied or skipped),
// with matching journal records.
func requireOnlineActivity(t *testing.T, stats *Stats, events []obs.Event) {
	t.Helper()
	if stats.ModelRetrains == 0 {
		t.Fatal("campaign never kicked off a retrain")
	}
	if stats.ModelSwaps+stats.ModelSwapsSkipped == 0 {
		t.Fatal("campaign never resolved a swap at a barrier")
	}
	var trains, swaps int
	for _, e := range events {
		switch e.Kind {
		case obs.EventModelTrain:
			trains++
		case obs.EventModelSwap:
			swaps++
		}
	}
	if int64(trains) != stats.ModelRetrains {
		t.Fatalf("%d model_train events for %d retrains", trains, stats.ModelRetrains)
	}
	if int64(swaps) != stats.ModelSwaps+stats.ModelSwapsSkipped {
		t.Fatalf("%d model_swap events for %d resolved swaps", swaps, stats.ModelSwaps+stats.ModelSwapsSkipped)
	}
	if stats.ModelSwaps > 0 && stats.ModelVersion == 0 {
		t.Fatal("swaps applied but ModelVersion still 0")
	}
}

// TestOnlineReproducibleParallel is the tentpole determinism guarantee: a
// 4-VM campaign with mid-flight retraining and hot swaps replays
// bit-identically per seed — including the swap versions, gate decisions
// and SPMV journal payloads.
func TestOnlineReproducibleParallel(t *testing.T) {
	a, evA, corpA := runOnlineCampaign(t, 51, 300_000, 4)
	requireOnlineActivity(t, a, evA)
	b, evB, corpB := runOnlineCampaign(t, 51, 300_000, 4)
	if !reflect.DeepEqual(zeroQueueWait(a), zeroQueueWait(b)) {
		t.Fatalf("online campaign not reproducible:\nrun1: edges=%d execs=%d retrains=%d swaps=%d/%d v=%d\nrun2: edges=%d execs=%d retrains=%d swaps=%d/%d v=%d",
			a.FinalEdges, a.Executions, a.ModelRetrains, a.ModelSwaps, a.ModelSwapsSkipped, a.ModelVersion,
			b.FinalEdges, b.Executions, b.ModelRetrains, b.ModelSwaps, b.ModelSwapsSkipped, b.ModelVersion)
	}
	if !reflect.DeepEqual(evA, evB) {
		t.Fatalf("journals diverged: %d vs %d events", len(evA), len(evB))
	}
	if !reflect.DeepEqual(corpA, corpB) {
		t.Fatalf("corpora diverged: %d vs %d entries", len(corpA), len(corpB))
	}
}

// TestOnlineSingleVMRoutesThroughBarriers pins that VMs=1 online campaigns
// run the epoch-barrier engine (swaps need barriers) and replay
// bit-identically too.
func TestOnlineSingleVMRoutesThroughBarriers(t *testing.T) {
	a, evA, _ := runOnlineCampaign(t, 52, 200_000, 1)
	requireOnlineActivity(t, a, evA)
	b, evB, _ := runOnlineCampaign(t, 52, 200_000, 1)
	if !reflect.DeepEqual(zeroQueueWait(a), zeroQueueWait(b)) || !reflect.DeepEqual(evA, evB) {
		t.Fatal("single-VM online campaign not reproducible")
	}
}

// TestOnlineRequiresSnowplowAndSwapper: config validation for the online
// loop — it needs the learned-mutator mode and a hot-swappable server.
func TestOnlineRequiresSnowplowAndSwapper(t *testing.T) {
	cfg := baselineConfig(53, 10_000)
	cfg.Online = fastOnline()
	if _, err := New(cfg).Run(); err == nil {
		t.Fatal("online syzkaller campaign did not error")
	}
	srv := newServer(t)
	defer srv.Close()
	cfg = baselineConfig(54, 10_000)
	cfg.Mode = ModeSnowplow
	cfg.Server = noSwap{srv}
	cfg.Online = fastOnline()
	if _, err := New(cfg).Run(); err == nil {
		t.Fatal("online campaign over a non-swappable server did not error")
	}
}

// noSwap hides the server's swap surface, leaving a bare Inferrer.
type noSwap struct{ serve.Inferrer }
