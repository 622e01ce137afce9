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

// TestClosedServerCountsShed runs Snowplow against a server that is
// already closed: every submission is refused, and each refusal must be
// counted in PMMShed — not in PMMQueries or PMMFailed — while the campaign
// keeps fuzzing on random localization.
func TestClosedServerCountsShed(t *testing.T) {
	for _, mode := range inferenceModes {
		t.Run(mode.name, func(t *testing.T) {
			srv := newFaultyServer(t, serve.Options{})
			srv.Close()
			cfg := baselineConfig(34, 200_000)
			cfg.Mode = ModeSnowplow
			cfg.Server = srv
			cfg.SyncInference = mode.sync
			stats, err := New(cfg).Run()
			if err != nil {
				t.Fatal(err)
			}
			if stats.FinalEdges == 0 {
				t.Fatal("campaign against a closed server found no coverage")
			}
			if stats.PMMShed == 0 || stats.PMMQueries != 0 || stats.PMMFailed != 0 {
				t.Fatalf("shed=%d queries=%d failed=%d; want refusals counted as shed only",
					stats.PMMShed, stats.PMMQueries, stats.PMMFailed)
			}
		})
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
// an active fault model and retries engaged, over vms VMs with synchronous
// or asynchronous inference. Serving plans each query's faults on its
// campaign key, so neither arrival order nor host load reaches the result.
func faultyCampaign(seed uint64, sync bool, vms int) (*Stats, serve.Stats) {
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
	cfg.SyncInference = sync
	cfg.VMs = vms
	stats, err := New(cfg).Run()
	if err != nil {
		panic(err)
	}
	return stats, srv.Stats()
}

// TestDeterminismWithActiveFaultModel is the keyed-fault guard: two
// campaigns with identical Config — including an active fault model — must
// produce byte-identical coverage time series and identical stats, for
// synchronous inference at one and four VMs and asynchronous inference at
// two. Any wall-clock or arrival-order leakage into fault planning breaks
// this test.
func TestDeterminismWithActiveFaultModel(t *testing.T) {
	rows := []struct {
		name string
		sync bool
		vms  int
	}{{"sync-1vm", true, 1}, {"async-2vm", false, 2}, {"sync-4vm", true, 4}}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			requireSameFaultyCampaign(t, row.sync, row.vms)
		})
	}
}

func requireSameFaultyCampaign(t *testing.T, sync bool, vms int) {
	a, sa := faultyCampaign(40, sync, vms)
	b, sb := faultyCampaign(40, sync, vms)

	if !reflect.DeepEqual(a.Series, b.Series) {
		t.Fatal("coverage time series diverged between identical faulty campaigns")
	}
	if a.FinalEdges != b.FinalEdges || a.Executions != b.Executions || a.CorpusSize != b.CorpusSize {
		t.Fatalf("campaign outcomes diverged: %d/%d/%d vs %d/%d/%d",
			a.FinalEdges, a.Executions, a.CorpusSize, b.FinalEdges, b.Executions, b.CorpusSize)
	}
	if a.PMMQueries != b.PMMQueries || a.PMMPredictions != b.PMMPredictions ||
		a.PMMFailed != b.PMMFailed || a.PMMShed != b.PMMShed ||
		a.PMMInvalidSlots != b.PMMInvalidSlots {
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
	c, _ := faultyCampaign(41, sync, vms)
	if reflect.DeepEqual(a.Series, c.Series) && a.PMMFailed == c.PMMFailed {
		t.Fatal("different seeds produced identical campaigns; fault model inert?")
	}
}
