package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/repro/snowplow/internal/fuzzer"
	"github.com/repro/snowplow/internal/obs"
)

// sampleDuring runs campaign while a sampler goroutine snapshots reg every
// millisecond, fails if a counter ever stepped backwards between two
// snapshots, and returns the registry's final values.
func sampleDuring(t *testing.T, reg *obs.Registry, campaign func()) map[string]int64 {
	t.Helper()
	s := obs.NewSampler(reg, time.Millisecond)
	s.Start()
	defer s.Stop()
	campaign()
	samples := s.Stop()
	for i := 1; i < len(samples); i++ {
		for name, v := range samples[i].Values {
			if prev := samples[i-1].Values[name]; strings.HasSuffix(name, "_total") && v < prev {
				t.Fatalf("%s stepped back from %d to %d", name, prev, v)
			}
		}
	}
	return samples[len(samples)-1].Values
}

// requireCountersMatchStats checks the campaign counters a coordinator's
// reconciler published against the campaign's Stats, field by field.
func requireCountersMatchStats(t *testing.T, label string, vals map[string]int64, s *fuzzer.Stats) {
	t.Helper()
	var epochs int64
	for _, vm := range s.VMs {
		epochs += vm.Epochs
	}
	y := s.Yield
	want := map[string]int64{
		"fuzzer_execs_total":              s.Executions,
		"fuzzer_execs_guided_total":       y.GuidedExecs,
		"fuzzer_execs_randarg_total":      y.RandArgExecs,
		"fuzzer_execs_generate_total":     y.GenerateExecs,
		"fuzzer_execs_othermut_total":     y.OtherMutExecs,
		"fuzzer_new_edges_guided_total":   y.GuidedEdges,
		"fuzzer_new_edges_randarg_total":  y.RandArgEdges,
		"fuzzer_new_edges_generate_total": y.GenerateEdges,
		"fuzzer_new_edges_othermut_total": y.OtherMutEdges,
		"fuzzer_crashes_total":            int64(len(s.Crashes)),
		"fuzzer_pmm_queries_total":        s.PMMQueries,
		"fuzzer_pmm_predictions_total":    s.PMMPredictions,
		"fuzzer_pmm_failed_total":         s.PMMFailed,
		"fuzzer_pmm_shed_total":           s.PMMShed,
		"fuzzer_pmm_invalid_slots_total":  s.PMMInvalidSlots,
		"fuzzer_epochs_total":             epochs,
		"fuzzer_cost_blocks":              s.Series[len(s.Series)-1].Cost,
		"corpus_size":                     int64(s.CorpusSize),
		"corpus_edges":                    int64(s.FinalEdges),
	}
	for _, vm := range s.VMs {
		want[fmt.Sprintf("fuzzer_vm%d_execs", vm.VM)] = vm.Executions
	}
	for name, v := range want {
		if got, ok := vals[name]; !ok || got != v {
			t.Errorf("%s: %s: registry %d (registered %v), want %d", label, name, got, ok, v)
		}
	}
}

// TestCoordinatorMetricsMatchStats runs a cluster campaign with a registry
// attached and a sampler reading it throughout: the coordinator's
// reconciler publishes the fleet counters and per-VM gauges there, each
// ending equal to the campaign's Stats.
func TestCoordinatorMetricsMatchStats(t *testing.T) {
	reg := obs.NewRegistry()
	spec := SpecFromConfig(baseConfig(48, 400_000, 4), nil)
	var res *Result
	vals := sampleDuring(t, reg, func() {
		var err error
		if res, err = RunLocal(Config{Spec: spec, Metrics: reg}, 2, WorkerOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if len(res.Stats.Crashes) == 0 {
		t.Fatal("campaign found no crash; the crash count is unchecked")
	}
	requireCountersMatchStats(t, "cluster", vals, res.Stats)
	if got := vals["cluster_epochs_total"]; got != res.Wire.Epochs {
		t.Errorf("cluster_epochs_total %d, want %d", got, res.Wire.Epochs)
	}
}
