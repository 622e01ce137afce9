package fuzzer

import (
	"reflect"
	"testing"

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

// TestMetricsMatchStats cross-checks the instrument bundle against the
// fuzzer's own Stats accounting: the registry is a second, independently
// maintained view of the same campaign and the two must agree.
func TestMetricsMatchStats(t *testing.T) {
	stats, events, vals := journaledCampaign(t, 74, 1)
	if vals["fuzzer_execs_total"] != stats.Executions {
		t.Fatalf("execs: metric %d, stats %d", vals["fuzzer_execs_total"], stats.Executions)
	}
	if got := vals["corpus_size"]; got != int64(stats.CorpusSize) {
		t.Fatalf("corpus size: metric %d, stats %d", got, stats.CorpusSize)
	}
	if got := vals["corpus_edges"]; got != int64(stats.FinalEdges) {
		t.Fatalf("edges: metric %d, stats %d", got, stats.FinalEdges)
	}
	if vals["fuzzer_crashes_total"] != int64(len(stats.Crashes)) {
		t.Fatalf("crashes: metric %d, stats %d", vals["fuzzer_crashes_total"], len(stats.Crashes))
	}
	classes := vals["fuzzer_execs_generate_total"] + vals["fuzzer_execs_randarg_total"] +
		vals["fuzzer_execs_guided_total"] + vals["fuzzer_execs_othermut_total"]
	if classes == 0 || classes > stats.Executions {
		t.Fatalf("yield classes sum %d vs executions %d", classes, stats.Executions)
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
