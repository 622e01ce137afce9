// Campaign observability: the fuzzer's instrument bundle and journal
// plumbing. Everything here is optional — with Config.Metrics and
// Config.Journal nil the hot paths pay one pointer nil check per
// instrumented site and nothing else (the zero-overhead guard in
// obs_bench_test.go enforces it).

package fuzzer

import (
	"fmt"

	"github.com/repro/snowplow/internal/corpus"
	"github.com/repro/snowplow/internal/obs"
)

// campaignMetrics is the fuzzer's instrument bundle. One bundle is shared
// by every VM worker of a campaign; all instruments are lock-free atomics.
type campaignMetrics struct {
	execs *obs.Counter

	// Yield by work class (executions and resulting new edges).
	execsGuided, execsRandArg, execsGenerate, execsOther *obs.Counter
	edgesGuided, edgesRandArg, edgesGenerate, edgesOther *obs.Counter

	crashes *obs.Counter

	// Inference traffic as seen from the fuzz loop.
	queries, predictions, predFailed, shed, invalidSlots *obs.Counter

	epochs      *obs.Counter
	cost        *obs.Gauge
	execLatency *obs.Histogram
	epochDur    *obs.Histogram
	barrierWait *obs.Histogram
}

// newCampaignMetrics registers the fuzzer's instruments plus pull-model
// gauges over the campaign corpus. A nil registry yields a nil bundle, the
// "metrics off" value every hot path checks for.
func newCampaignMetrics(reg *obs.Registry, corp *corpus.Corpus) *campaignMetrics {
	if reg == nil {
		return nil
	}
	m := &campaignMetrics{
		execs:         reg.Counter("fuzzer_execs_total", "execs", "programs executed (all VMs, incl. triage)"),
		execsGuided:   reg.Counter("fuzzer_execs_guided_total", "execs", "PMM-localized argument-mutation executions"),
		execsRandArg:  reg.Counter("fuzzer_execs_randarg_total", "execs", "randomly localized argument-mutation executions"),
		execsGenerate: reg.Counter("fuzzer_execs_generate_total", "execs", "freshly generated program executions"),
		execsOther:    reg.Counter("fuzzer_execs_othermut_total", "execs", "call insertion/removal executions"),
		edgesGuided:   reg.Counter("fuzzer_new_edges_guided_total", "edges", "new edges from PMM-guided mutations"),
		edgesRandArg:  reg.Counter("fuzzer_new_edges_randarg_total", "edges", "new edges from random argument mutations"),
		edgesGenerate: reg.Counter("fuzzer_new_edges_generate_total", "edges", "new edges from generated programs"),
		edgesOther:    reg.Counter("fuzzer_new_edges_othermut_total", "edges", "new edges from call insertion/removal"),
		crashes:       reg.Counter("fuzzer_crashes_total", "crashes", "unique crash titles (per VM dedup)"),
		queries:       reg.Counter("fuzzer_pmm_queries_total", "queries", "inference queries submitted"),
		predictions:   reg.Counter("fuzzer_pmm_predictions_total", "predictions", "predictions received and usable"),
		predFailed:    reg.Counter("fuzzer_pmm_failed_total", "queries", "queries with terminal serving errors"),
		shed:          reg.Counter("fuzzer_pmm_shed_total", "queries", "queries refused at submission (server closed)"),
		invalidSlots:  reg.Counter("fuzzer_pmm_invalid_slots_total", "slots", "predicted slots rejected as out of range"),
		epochs:        reg.Counter("fuzzer_epochs_total", "epochs", "reconcile epochs completed (fleet-wide)"),
		cost:          reg.Gauge("fuzzer_cost_blocks", "blocks", "fleet simulated cost consumed so far"),
		execLatency:   reg.Histogram("fuzzer_exec_latency_ns", "ns", "wall-clock latency of one program execution", obs.LatencyBucketsNs()),
		epochDur:      reg.Histogram("fuzzer_epoch_duration_ns", "ns", "wall-clock duration of one VM's epoch slice", obs.LatencyBucketsNs()),
		barrierWait:   reg.Histogram("fuzzer_barrier_wait_ns", "ns", "wall-clock time a VM waited at a reconcile barrier", obs.LatencyBucketsNs()),
	}
	reg.GaugeFunc("corpus_size", "programs", "programs in the shared corpus", func() int64 {
		return int64(corp.Len())
	})
	reg.GaugeFunc("corpus_edges", "edges", "total edge coverage of the shared corpus", func() int64 {
		return int64(corp.TotalEdges())
	})
	reg.GaugeFunc("corpus_snapshot_epoch", "epochs", "snapshot generation of the corpus entry list", func() int64 {
		return int64(corp.Epoch())
	})
	return m
}

// vmGauges are one VM's health gauges, refreshed at every reconcile barrier
// so a live /metrics scrape shows per-VM progress and contention
// mid-campaign. Names follow the documented fuzzer_vm<i>_* pattern.
type vmGauges struct {
	execs, newEdges, queries, queueWaitNs *obs.Gauge
}

func newVMGauges(reg *obs.Registry, vm int) *vmGauges {
	return &vmGauges{
		execs:       reg.Gauge(fmt.Sprintf("fuzzer_vm%d_execs", vm), "execs", "VM's executions so far"),
		newEdges:    reg.Gauge(fmt.Sprintf("fuzzer_vm%d_new_edges", vm), "edges", "VM's reconciled new-edge yield so far"),
		queries:     reg.Gauge(fmt.Sprintf("fuzzer_vm%d_queries", vm), "queries", "VM's inference queries so far"),
		queueWaitNs: reg.Gauge(fmt.Sprintf("fuzzer_vm%d_queue_wait_ns", vm), "ns", "VM's accumulated barrier wait"),
	}
}

// recordYieldMetrics mirrors recordYield into the instrument bundle.
func (m *campaignMetrics) recordYield(class yieldClass, newEdges int) {
	switch class {
	case classGenerate:
		m.execsGenerate.Inc()
		m.edgesGenerate.Add(int64(newEdges))
	case classGuided:
		m.execsGuided.Inc()
		m.edgesGuided.Add(int64(newEdges))
	case classRandArg:
		m.execsRandArg.Inc()
		m.edgesRandArg.Add(int64(newEdges))
	default:
		m.execsOther.Inc()
		m.edgesOther.Add(int64(newEdges))
	}
}

// jevent buffers one journal event on behalf of this worker. Workers never
// touch the shared journal directly: their events queue locally and the
// reconciler flushes them at the barrier in ascending VM order, which is
// what makes journal sequence numbers a pure function of the seed rather
// than of goroutine scheduling.
func (w *worker) jevent(kind string, value int64, detail string) {
	if w.cfg.Journal != nil {
		w.events = append(w.events, obs.Event{Kind: kind, VM: w.id, Epoch: w.epoch, Cost: w.cost, Value: value, Detail: detail})
	}
}
