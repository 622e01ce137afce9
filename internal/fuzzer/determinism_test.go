package fuzzer

import (
	"reflect"
	"testing"
	"time"

	"github.com/repro/snowplow/internal/nn"
	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/serve"
)

// snowplowCampaign runs one single-VM Snowplow campaign with the given
// performance knobs and returns its stats. Both integrations are a function
// of the seed alone — never of host speed, worker counts or batching:
// synchronous inference because every guided round blocks on its reply,
// asynchronous inference because replies are harvested only at epoch
// barriers. Like every determinism guarantee it assumes serving fails no
// query, so the queue holds a whole epoch's submissions even at one
// unbatched serving worker (a full queue fails the query on timing).
func snowplowCampaign(t *testing.T, seed uint64, sync bool, nnWorkers, serveWorkers, batch int) *Stats {
	t.Helper()
	prev := nn.Workers()
	nn.SetWorkers(nnWorkers)
	defer nn.SetWorkers(prev)
	m := pmm.NewModel(rng.New(77), pmm.DefaultConfig(), pmm.BuildVocab(testKernel))
	srv := serve.NewServerOpts(m, qgraph.NewBuilder(testKernel, testAn).WithCache(256), serve.Options{
		Workers:   serveWorkers,
		BatchSize: batch,
		QueueSize: 256,
		Deadline:  30 * time.Second,
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
