package fuzzer

import (
	"reflect"
	"testing"

	"github.com/repro/snowplow/internal/faultinject"
	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/serve"
)

func newFaultyServer(t testing.TB, opts serve.Options) *serve.Server {
	t.Helper()
	m := pmm.NewModel(rng.New(9), pmm.DefaultConfig(), pmm.BuildVocab(testKernel))
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	return serve.NewServerOpts(m, qgraph.NewBuilder(testKernel, testAn), opts)
}

// TestSnowplowSurvivesFaultyServing runs the asynchronous integration
// against a 30% fault rate: the campaign must finish, find coverage, and
// account for serving failures. Run with -race: this is the async fuzzer
// window talking to concurrent dispatchers.
func TestSnowplowSurvivesFaultyServing(t *testing.T) {
	srv := newFaultyServer(t, serve.Options{
		Fault: &faultinject.Model{Seed: 31, DropProb: 0.1, TransientProb: 0.1, CorruptProb: 0.1},
	})
	defer srv.Close()
	cfg := baselineConfig(33, 300_000)
	cfg.Mode = ModeSnowplow
	cfg.Server = srv
	stats, err := New(cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalEdges == 0 {
		t.Fatal("no coverage under faulty serving")
	}
	if stats.PMMQueries == 0 {
		t.Fatal("no queries issued")
	}
	srv.Close() // quiesce in-flight dispatchers so the accounting is final
	ss := srv.Stats()
	if ss.InjDropped+ss.InjTransient+ss.InjCorrupt == 0 {
		t.Fatal("fault model injected nothing")
	}
	if ss.Succeeded+ss.Failed != ss.Queries {
		t.Fatalf("serving stats do not add up: %d+%d != %d", ss.Succeeded, ss.Failed, ss.Queries)
	}
}

// TestDegradedModeActivatesAndSheds drives serving fully down: the fuzzer
// must notice unhealthy serving, raise its fallback probability, shed
// pending queries, and keep fuzzing on random localization.
func TestDegradedModeActivatesAndSheds(t *testing.T) {
	srv := newFaultyServer(t, serve.Options{
		MaxRetries:       -1,
		Fault:            &faultinject.Model{Seed: 5, TransientProb: 1},
		HealthMinSamples: 4,
	})
	defer srv.Close()
	cfg := baselineConfig(34, 300_000)
	cfg.Mode = ModeSnowplow
	cfg.Server = srv
	stats, err := New(cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalEdges == 0 {
		t.Fatal("degraded campaign found no coverage")
	}
	if stats.DegradedSteps == 0 {
		t.Fatal("fuzzer never entered degraded mode against a dead server")
	}
	if stats.PMMQueries == 0 {
		t.Fatal("no queries issued before degradation")
	}
	// A failed reply is either harvested (PMMFailed) or abandoned by the
	// degraded-mode shed (PMMShed); against a dead server at least one of
	// the two must fire.
	if stats.PMMFailed+stats.PMMShed == 0 {
		t.Fatal("no failed or shed queries recorded against a fully-transient server")
	}
	if stats.PMMPredictions != 0 {
		t.Fatalf("%d predictions from a server that can only fail", stats.PMMPredictions)
	}
	if srv.Healthy() {
		t.Fatal("fully-transient server reports healthy after the campaign")
	}
}

// TestCorruptPredictionsNeverCrashMutator runs with every prediction
// corrupted (out-of-range slots): the sanitizer must reject them and the
// campaign must complete on fallback mutations.
func TestCorruptPredictionsNeverCrashMutator(t *testing.T) {
	srv := newFaultyServer(t, serve.Options{
		Fault: &faultinject.Model{Seed: 8, CorruptProb: 1},
	})
	defer srv.Close()
	cfg := baselineConfig(35, 200_000)
	cfg.Mode = ModeSnowplow
	cfg.Server = srv
	// Synchronous integration: every guided round consumes a (corrupt)
	// prediction, independent of host speed.
	cfg.SyncInference = true
	stats, err := New(cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalEdges == 0 {
		t.Fatal("no coverage")
	}
	if stats.PMMInvalidSlots == 0 {
		t.Fatal("sanitizer rejected nothing although every prediction was corrupt")
	}
}

// faultyCampaign is the determinism property test's fixture: Snowplow with
// an active fault model, synchronous inference (the async window races
// against wall clock by design, §3.4), retries and seeded backoff engaged.
func faultyCampaign(seed uint64) (*Stats, serve.Stats) {
	m := pmm.NewModel(rng.New(9), pmm.DefaultConfig(), pmm.BuildVocab(testKernel))
	srv := serve.NewServerOpts(m, qgraph.NewBuilder(testKernel, testAn), serve.Options{
		Workers: 2,
		Fault: &faultinject.Model{
			Seed: seed + 0xfa, DropProb: 0.2, TransientProb: 0.2, CorruptProb: 0.1,
		},
	})
	defer srv.Close()
	cfg := baselineConfig(seed, 250_000)
	cfg.Mode = ModeSnowplow
	cfg.Server = srv
	cfg.SyncInference = true
	stats, err := New(cfg).Run()
	if err != nil {
		panic(err)
	}
	return stats, srv.Stats()
}

// TestDeterminismWithActiveFaultModel is the seeded-backoff guard: two
// campaigns with identical Config — including an active fault model — must
// produce byte-identical coverage time series and identical stats. Any
// wall-clock leakage into fault planning, retry jitter, or degradation
// decisions breaks this test.
func TestDeterminismWithActiveFaultModel(t *testing.T) {
	a, sa := faultyCampaign(40)
	b, sb := faultyCampaign(40)

	if !reflect.DeepEqual(a.Series, b.Series) {
		t.Fatal("coverage time series diverged between identical faulty campaigns")
	}
	if a.FinalEdges != b.FinalEdges || a.Executions != b.Executions || a.CorpusSize != b.CorpusSize {
		t.Fatalf("campaign outcomes diverged: %d/%d/%d vs %d/%d/%d",
			a.FinalEdges, a.Executions, a.CorpusSize, b.FinalEdges, b.Executions, b.CorpusSize)
	}
	if a.PMMQueries != b.PMMQueries || a.PMMPredictions != b.PMMPredictions ||
		a.PMMFailed != b.PMMFailed || a.PMMShed != b.PMMShed ||
		a.PMMInvalidSlots != b.PMMInvalidSlots || a.DegradedSteps != b.DegradedSteps {
		t.Fatalf("PMM accounting diverged:\n%+v\n%+v", a, b)
	}
	if !reflect.DeepEqual(a.Yield, b.Yield) {
		t.Fatalf("yield breakdown diverged:\n%+v\n%+v", a.Yield, b.Yield)
	}
	if len(a.Crashes) != len(b.Crashes) {
		t.Fatalf("crash counts diverged: %d vs %d", len(a.Crashes), len(b.Crashes))
	}
	for i := range a.Crashes {
		if a.Crashes[i].Spec.Title != b.Crashes[i].Spec.Title ||
			a.Crashes[i].ProgText != b.Crashes[i].ProgText ||
			a.Crashes[i].Cost != b.Crashes[i].Cost {
			t.Fatalf("crash %d diverged", i)
		}
	}
	// The serving side must replay identically too (modulo wall-clock
	// latency metrics).
	if sa.Queries != sb.Queries || sa.Succeeded != sb.Succeeded || sa.Failed != sb.Failed ||
		sa.Retries != sb.Retries || sa.Timeouts != sb.Timeouts ||
		sa.InjDropped != sb.InjDropped || sa.InjTransient != sb.InjTransient ||
		sa.InjCorrupt != sb.InjCorrupt {
		t.Fatalf("serving counters diverged:\n%+v\n%+v", sa, sb)
	}
	// And a different fault seed must actually change the campaign,
	// otherwise the property above is vacuous.
	c, _ := faultyCampaign(41)
	if reflect.DeepEqual(a.Series, c.Series) && a.PMMFailed == c.PMMFailed {
		t.Fatal("different seeds produced identical campaigns; fault model inert?")
	}
}

func TestFallbackProbRaisedWhenUnhealthy(t *testing.T) {
	srv := newFaultyServer(t, serve.Options{
		MaxRetries:       -1,
		Fault:            &faultinject.Model{Seed: 6, TransientProb: 1},
		HealthMinSamples: 2,
	})
	defer srv.Close()
	cfg := baselineConfig(36, 1000)
	cfg.Mode = ModeSnowplow
	cfg.Server = srv
	cfg.FallbackProb = 0.1
	cfg.DegradedFallbackProb = 0.95
	w := newWorker(&cfg, InitialVMState(cfg, 0), nil, false)
	// Drive the server unhealthy by hand; a fully-transient model fails
	// every query before it reaches the worker pool.
	for i := 0; i < 8; i++ {
		srv.Infer(serve.Query{Prog: cfg.SeedCorpus[0], Traces: nil, Targets: nil})
	}
	if srv.Healthy() {
		t.Skip("server still healthy; health window larger than expected")
	}
	if got := w.fallbackProb(); got != 0.95 {
		t.Fatalf("degraded fallback prob = %v, want 0.95", got)
	}
	if w.stats.DegradedSteps != 1 {
		t.Fatalf("degraded steps = %d", w.stats.DegradedSteps)
	}
}
