package fuzzer

import (
	"reflect"
	"testing"

	"github.com/repro/snowplow/internal/nn"
	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/serve"
)

// snowplowCampaign runs one single-VM Snowplow campaign with the given
// performance knobs and returns its stats. Both integrations are a function
// of the seed alone — never of host speed, worker counts, batching or
// queue size: synchronous inference because every guided round blocks on
// its reply, asynchronous inference because replies are harvested only at
// epoch barriers, and both because a campaign query waits for queue space
// and has no deadline.
func snowplowCampaign(t *testing.T, seed uint64, sync bool, nnWorkers, serveWorkers, batch int) *Stats {
	t.Helper()
	prev := nn.Workers()
	nn.SetWorkers(nnWorkers)
	defer nn.SetWorkers(prev)
	m := pmm.NewModel(rng.New(77), pmm.DefaultConfig(), pmm.BuildVocab(testKernel))
	srv := serve.NewServerOpts(m, qgraph.NewBuilder(testKernel, testAn).WithCache(256), serve.Options{
		Workers:   serveWorkers,
		BatchSize: batch,
	})
	defer srv.Close()
	cfg := baselineConfig(seed, 200_000)
	cfg.Mode = ModeSnowplow
	cfg.Server = srv
	cfg.VMs = 1
	cfg.SyncInference = sync
	stats, err := New(cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.PMMFailed != 0 {
		t.Fatalf("serving failed %d queries", stats.PMMFailed)
	}
	return zeroQueueWait(stats)
}

// inferenceModes names the two integrations snowplowCampaign runs.
var inferenceModes = []struct {
	name string
	sync bool
}{{"sync", true}, {"async", false}}

// TestCampaignDeterminismAcrossPerfKnobs is the end-to-end determinism
// guarantee: the entire campaign outcome — coverage series, executions,
// crashes, PMM accounting — must be identical whether inference runs
// serial/unbatched or with a multi-worker MatMul pool, multiple serving
// workers, and micro-batching. Performance knobs change speed, not results.
func TestCampaignDeterminismAcrossPerfKnobs(t *testing.T) {
	for _, mode := range inferenceModes {
		t.Run(mode.name, func(t *testing.T) {
			base := snowplowCampaign(t, 55, mode.sync, 1, 1, 1)
			tuned := snowplowCampaign(t, 55, mode.sync, 4, 2, 8)
			if base.FinalEdges == 0 || base.PMMQueries == 0 {
				t.Fatal("baseline campaign did no PMM-guided work")
			}
			if !reflect.DeepEqual(base, tuned) {
				t.Fatalf("campaign diverged across performance knobs:\nworkers=1/batch=1: edges=%d execs=%d queries=%d preds=%d cacheHits=%d\nworkers=4/batch=8: edges=%d execs=%d queries=%d preds=%d cacheHits=%d",
					base.FinalEdges, base.Executions, base.PMMQueries, base.PMMPredictions, base.PMMCacheHits,
					tuned.FinalEdges, tuned.Executions, tuned.PMMQueries, tuned.PMMPredictions, tuned.PMMCacheHits)
			}
		})
	}
}

// TestCampaignDeterminismRepeatSameKnobs pins the weaker but also necessary
// property: the tuned configuration reproduces itself run to run.
func TestCampaignDeterminismRepeatSameKnobs(t *testing.T) {
	for _, mode := range inferenceModes {
		t.Run(mode.name, func(t *testing.T) {
			a := snowplowCampaign(t, 56, mode.sync, 4, 2, 8)
			b := snowplowCampaign(t, 56, mode.sync, 4, 2, 8)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("tuned campaign not reproducible run to run")
			}
		})
	}
}

// overloadCampaign runs a 4-VM asynchronous Snowplow campaign on a server
// with the given options and returns its stats and corpus digests.
func overloadCampaign(t *testing.T, opts serve.Options) (*Stats, string, string) {
	t.Helper()
	m := pmm.NewModel(rng.New(77), pmm.DefaultConfig(), pmm.BuildVocab(testKernel))
	srv := serve.NewServerOpts(m, qgraph.NewBuilder(testKernel, testAn), opts)
	defer srv.Close()
	cfg := baselineConfig(57, 200_000)
	cfg.Mode = ModeSnowplow
	cfg.Server = srv
	cfg.VMs = 4
	f := New(cfg)
	stats, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	corp, cover := corpusCoverDigests(f.Corpus())
	return zeroQueueWait(stats), corp, cover
}

// TestCampaignDeterminismUnderOverload runs four asynchronous VMs against
// one unbatched serving worker whose default queue holds eight attempts —
// far fewer than an epoch submits — and against a 4 096-slot queue that
// never fills. Campaign queries wait for room instead of failing, so the
// two campaigns must fail no query and agree on every stat and digest.
func TestCampaignDeterminismUnderOverload(t *testing.T) {
	tight, tightCorp, tightCover := overloadCampaign(t, serve.Options{Workers: 1})
	roomy, roomyCorp, roomyCover := overloadCampaign(t, serve.Options{Workers: 1, QueueSize: 4096})
	if tight.PMMQueries == 0 {
		t.Fatal("campaign issued no queries")
	}
	if tight.PMMFailed != 0 || roomy.PMMFailed != 0 {
		t.Fatalf("serving failed %d (default queue) / %d (4096 slots) queries", tight.PMMFailed, roomy.PMMFailed)
	}
	if tightCorp != roomyCorp || tightCover != roomyCover || !reflect.DeepEqual(tight, roomy) {
		t.Fatalf("queue size changed the campaign: queries %d/%d preds %d/%d execs %d/%d corpus %s/%s",
			tight.PMMQueries, roomy.PMMQueries, tight.PMMPredictions, roomy.PMMPredictions,
			tight.Executions, roomy.Executions, tightCorp, roomyCorp)
	}
}
