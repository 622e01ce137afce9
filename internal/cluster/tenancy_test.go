package cluster

import (
	"testing"

	"github.com/repro/snowplow/internal/fuzzer"
)

// TestClusterSharedServingMatchesPrivate is the serving-multiplexing A/B:
// the same Snowplow campaign run once on the default loopback path (every
// in-process worker a tenant of one shared multi-tenant model server) and
// once the way real TCP workers join (NewCoordinator + RunWorker with no
// Inference: a private model replica per worker) must produce
// byte-identical corpus, coverage and journal digests. Sharing the model
// changes the memory footprint, never a prediction.
func TestClusterSharedServingMatchesPrivate(t *testing.T) {
	model := testModelBytes(t)
	cfg := baseConfig(46, 200_000, 4)
	cfg.Mode = fuzzer.ModeSnowplow
	spec := SpecFromConfig(withJournalFlag(cfg), model)
	for _, workers := range []int{1, 2} {
		shared, err := RunLocal(Config{Spec: spec}, workers, WorkerOptions{})
		if err != nil {
			t.Fatalf("shared serving, workers=%d: %v", workers, err)
		}
		if shared.Stats.PMMQueries == 0 {
			t.Fatalf("workers=%d: shared-serving campaign issued no PMM queries", workers)
		}
		private := runPrivateFleet(t, Config{Spec: spec}, workers)
		requireSameResult(t, labelWorkers(workers)+"/shared-vs-private", private, shared)
	}
}
