package fuzzer

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/repro/snowplow/internal/obs"
)

// journaledCampaign runs one instrumented syzkaller-mode campaign and
// returns its stats, journal events, and final metric values. Syzkaller
// mode has no inference, so the campaign — and therefore the journal — is
// fully deterministic per (seed, vms).
func journaledCampaign(t *testing.T, seed uint64, vms int) (*Stats, []obs.Event, map[string]int64) {
	t.Helper()
	reg := obs.NewRegistry()
	jn := obs.NewJournal(obs.DefaultJournalCap)
	cfg := baselineConfig(seed, 300_000)
	cfg.VMs = vms
	cfg.Metrics = reg
	cfg.Journal = jn
	stats, err := New(cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	return stats, jn.Events(), reg.Values()
}

// TestJournalDeterministicSequential is the journal's core guarantee at
// VMs=1: two campaigns with the same seed record byte-identical event
// streams, sequence numbers included.
func TestJournalDeterministicSequential(t *testing.T) {
	_, a, _ := journaledCampaign(t, 71, 1)
	_, b, _ := journaledCampaign(t, 71, 1)
	if len(a) < 4 {
		t.Fatalf("journal too small to be meaningful: %d events", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sequential journal diverged: %d vs %d events", len(a), len(b))
	}
	if a[0].Kind != obs.EventCampaignStart || a[len(a)-1].Kind != obs.EventCampaignEnd {
		t.Fatalf("journal not bracketed: first=%s last=%s", a[0].Kind, a[len(a)-1].Kind)
	}
}

// TestJournalDeterministicParallel pins the parallel guarantee: at VMs=4
// the full event stream — including global sequence numbers — is identical
// run to run, because workers buffer events and the reconciler flushes them
// at epoch barriers in ascending VM order. Run under -race, this also
// proves the journal plumbing is race-clean.
func TestJournalDeterministicParallel(t *testing.T) {
	_, a, _ := journaledCampaign(t, 72, 4)
	_, b, _ := journaledCampaign(t, 72, 4)
	if !reflect.DeepEqual(a, b) {
		for i := range a {
			if i >= len(b) || a[i] != b[i] {
				t.Fatalf("parallel journal diverged at event %d:\n%+v\n%+v", i, a[i], b[i])
			}
		}
		t.Fatalf("parallel journal diverged in length: %d vs %d", len(a), len(b))
	}
	epochs := 0
	for _, e := range a {
		if e.Kind == obs.EventEpoch {
			epochs++
			if e.VM != -1 {
				t.Fatalf("epoch event from VM %d, want fleet-level -1", e.VM)
			}
		}
	}
	if epochs == 0 {
		t.Fatal("no epoch barrier events at VMs=4")
	}
}

// TestJournalPerVMSubsequencesStable checks the cross-fleet-size property:
// each VM's own event subsequence (kind, value, detail — not global seq or
// epoch numbering) is stable run to run at VMs=4.
func TestJournalPerVMSubsequencesStable(t *testing.T) {
	_, a, _ := journaledCampaign(t, 73, 4)
	_, b, _ := journaledCampaign(t, 73, 4)
	type key struct {
		kind   string
		value  int64
		detail string
	}
	perVM := func(evs []obs.Event) map[int][]key {
		out := map[int][]key{}
		for _, e := range evs {
			out[e.VM] = append(out[e.VM], key{e.Kind, e.Value, e.Detail})
		}
		return out
	}
	pa, pb := perVM(a), perVM(b)
	if len(pa) < 4 {
		t.Fatalf("events from only %d VMs", len(pa)-1)
	}
	if !reflect.DeepEqual(pa, pb) {
		t.Fatal("per-VM event subsequences diverged run to run")
	}
}

// statsCounters is what each campaign counter the reconciler publishes
// must read after Run, spelled out from the Stats fields independently of
// the publisher's own table.
func statsCounters(s *Stats) map[string]int64 {
	var epochs int64
	for _, vm := range s.VMs {
		epochs += vm.Epochs
	}
	y := s.Yield
	return map[string]int64{
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
	}
}

func requireCounters(t *testing.T, vals, want map[string]int64) {
	t.Helper()
	for name, v := range want {
		if got, ok := vals[name]; !ok || got != v {
			t.Errorf("%s: registry %d (registered %v), want %d", name, got, ok, v)
		}
	}
}

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

// TestMetricsMatchStats checks the registry of a one-VM campaign against
// its Stats: the reconciler publishes every campaign counter from the same
// fold of the VM states that yields Stats, so the two agree exactly.
func TestMetricsMatchStats(t *testing.T) {
	stats, events, vals := journaledCampaign(t, 74, 1)
	requireCounters(t, vals, statsCounters(stats))
	if got := vals["corpus_size"]; got != int64(stats.CorpusSize) {
		t.Fatalf("corpus size: metric %d, stats %d", got, stats.CorpusSize)
	}
	if got := vals["corpus_edges"]; got != int64(stats.FinalEdges) {
		t.Fatalf("edges: metric %d, stats %d", got, stats.FinalEdges)
	}
	if vals["fuzzer_exec_latency_ns_count"] != stats.Executions {
		t.Fatalf("exec latency observations %d != executions %d",
			vals["fuzzer_exec_latency_ns_count"], stats.Executions)
	}
	crashEvents := 0
	for _, e := range events {
		if e.Kind == obs.EventCrash {
			crashEvents++
		}
	}
	if crashEvents != len(stats.Crashes) {
		t.Fatalf("crash events %d != unique crashes %d", crashEvents, len(stats.Crashes))
	}
}

// TestFleetMetricsMatchStats is the publication contract for a fleet: a
// 2-VM Snowplow campaign that crashes, read by a concurrent sampler
// throughout, ends with every counter equal to its Stats field — crashes
// as fleet-unique titles, epochs as the sum over VMs — the per-VM gauges
// equal to each VM's stats, and every execution and epoch timed.
func TestFleetMetricsMatchStats(t *testing.T) {
	srv := newServer(t)
	defer srv.Close()
	reg := obs.NewRegistry()
	cfg := baselineConfig(76, 300_000)
	cfg.Mode = ModeSnowplow
	cfg.Server = srv
	cfg.VMs = 2
	cfg.Metrics = reg
	var stats *Stats
	vals := sampleDuring(t, reg, func() {
		var err error
		if stats, err = New(cfg).Run(); err != nil {
			t.Fatal(err)
		}
	})
	if len(stats.Crashes) == 0 || stats.PMMPredictions == 0 {
		t.Fatalf("campaign found %d crashes and used %d predictions; the check needs both", len(stats.Crashes), stats.PMMPredictions)
	}
	requireCounters(t, vals, statsCounters(stats))
	if vals["corpus_size"] != int64(stats.CorpusSize) {
		t.Errorf("corpus size: metric %d, stats %d", vals["corpus_size"], stats.CorpusSize)
	}
	var wait int64
	for _, vm := range stats.VMs {
		wait += vm.QueueWaitNs
		requireCounters(t, vals, map[string]int64{
			fmt.Sprintf("fuzzer_vm%d_execs", vm.VM):         vm.Executions,
			fmt.Sprintf("fuzzer_vm%d_new_edges", vm.VM):     vm.NewEdges,
			fmt.Sprintf("fuzzer_vm%d_queries", vm.VM):       vm.Queries,
			fmt.Sprintf("fuzzer_vm%d_queue_wait_ns", vm.VM): vm.QueueWaitNs,
		})
	}
	if vals["fuzzer_exec_latency_ns_count"] != stats.Executions {
		t.Errorf("exec latency observations %d != executions %d", vals["fuzzer_exec_latency_ns_count"], stats.Executions)
	}
	if vals["fuzzer_epoch_duration_ns_count"] != vals["fuzzer_epochs_total"] {
		t.Errorf("timed epochs %d != epochs %d", vals["fuzzer_epoch_duration_ns_count"], vals["fuzzer_epochs_total"])
	}
	if wait == 0 || vals["fuzzer_barrier_wait_ns_count"] == 0 {
		t.Errorf("no barrier wait recorded: stats %d ns, %d observations", wait, vals["fuzzer_barrier_wait_ns_count"])
	}
}

// TestSharedRegistrySumsCampaigns runs two campaigns concurrently against
// one registry, as -tenants N does: publication adds increases, so each
// counter ends at the sum of both campaigns' Stats.
func TestSharedRegistrySumsCampaigns(t *testing.T) {
	reg := obs.NewRegistry()
	var stats [2]*Stats
	var errs [2]error
	vals := sampleDuring(t, reg, func() {
		var wg sync.WaitGroup
		for i := range stats {
			cfg := baselineConfig(uint64(81+i), 200_000)
			cfg.VMs = 2
			cfg.Metrics = reg
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				stats[i], errs[i] = New(cfg).Run()
			}(i)
		}
		wg.Wait()
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	want := statsCounters(stats[0])
	for name, v := range statsCounters(stats[1]) {
		want[name] += v
	}
	requireCounters(t, vals, want)
}

// TestMetricsDisabledLeavesStatsIdentical proves attaching observability
// does not perturb the campaign: same seed with and without instruments
// yields identical Stats, modulo the wall-clock barrier wait.
func TestMetricsDisabledLeavesStatsIdentical(t *testing.T) {
	plain, err := New(baselineConfig(75, 300_000)).Run()
	if err != nil {
		t.Fatal(err)
	}
	instrumented, _, _ := journaledCampaign(t, 75, 1)
	if !reflect.DeepEqual(zeroQueueWait(plain), zeroQueueWait(instrumented)) {
		t.Fatal("attaching metrics/journal changed campaign results")
	}
}
