// Campaign observability: the fuzzer's instruments and journal plumbing.
// Everything here is optional — with Config.Metrics and Config.Journal nil
// the fuzz loop pays one pointer nil check per timed site and nothing else
// (the zero-overhead guard in obs_bench_test.go enforces it). The loop
// pushes no counts: the reconciler publishes them from its fold of the VM
// states, at build, at every barrier and after the final drain.

package fuzzer

import (
	"fmt"

	"github.com/repro/snowplow/internal/corpus"
	"github.com/repro/snowplow/internal/obs"
)

// campaignMetrics are the wall-clock histograms the VMs observe where the
// time passes, shared by every VM of a campaign.
type campaignMetrics struct {
	execLatency, epochDur, barrierWait *obs.Histogram
}

// newCampaignMetrics registers the histograms. A nil registry yields a nil
// bundle, the "metrics off" value every timed site checks for.
func newCampaignMetrics(reg *obs.Registry) *campaignMetrics {
	if reg == nil {
		return nil
	}
	return &campaignMetrics{
		execLatency: reg.Histogram("fuzzer_exec_latency_ns", "ns", "wall-clock latency of one program execution", obs.LatencyBucketsNs()),
		epochDur:    reg.Histogram("fuzzer_epoch_duration_ns", "ns", "wall-clock duration of one VM's epoch slice", obs.LatencyBucketsNs()),
		barrierWait: reg.Histogram("fuzzer_barrier_wait_ns", "ns", "wall-clock time a VM waited at a reconcile barrier", obs.LatencyBucketsNs()),
	}
}

// statCounter is one campaign counter the reconciler publishes and the
// Stats field it reads.
type statCounter struct {
	name, unit, help string
	value            func(*Stats) int64
}

// fleetCounters are published by every instrumented reconciler;
// onlineCounters join them when the campaign learns online.
var (
	fleetCounters = []statCounter{
		{"fuzzer_execs_total", "execs", "programs executed (all VMs, incl. triage)", func(s *Stats) int64 { return s.Executions }},
		{"fuzzer_execs_guided_total", "execs", "PMM-localized argument-mutation executions", func(s *Stats) int64 { return s.Yield.GuidedExecs }},
		{"fuzzer_execs_randarg_total", "execs", "randomly localized argument-mutation executions", func(s *Stats) int64 { return s.Yield.RandArgExecs }},
		{"fuzzer_execs_generate_total", "execs", "freshly generated program executions", func(s *Stats) int64 { return s.Yield.GenerateExecs }},
		{"fuzzer_execs_othermut_total", "execs", "call insertion/removal executions", func(s *Stats) int64 { return s.Yield.OtherMutExecs }},
		{"fuzzer_new_edges_guided_total", "edges", "new edges from PMM-guided mutations", func(s *Stats) int64 { return s.Yield.GuidedEdges }},
		{"fuzzer_new_edges_randarg_total", "edges", "new edges from random argument mutations", func(s *Stats) int64 { return s.Yield.RandArgEdges }},
		{"fuzzer_new_edges_generate_total", "edges", "new edges from generated programs", func(s *Stats) int64 { return s.Yield.GenerateEdges }},
		{"fuzzer_new_edges_othermut_total", "edges", "new edges from call insertion/removal", func(s *Stats) int64 { return s.Yield.OtherMutEdges }},
		{"fuzzer_crashes_total", "crashes", "unique crash titles across the fleet", func(s *Stats) int64 { return int64(len(s.Crashes)) }},
		{"fuzzer_pmm_queries_total", "queries", "inference queries submitted", func(s *Stats) int64 { return s.PMMQueries }},
		{"fuzzer_pmm_predictions_total", "predictions", "predictions received and usable", func(s *Stats) int64 { return s.PMMPredictions }},
		{"fuzzer_pmm_failed_total", "queries", "queries with terminal serving errors", func(s *Stats) int64 { return s.PMMFailed }},
		{"fuzzer_pmm_shed_total", "queries", "queries refused at submission (server closed)", func(s *Stats) int64 { return s.PMMShed }},
		{"fuzzer_pmm_invalid_slots_total", "slots", "predicted slots rejected as out of range", func(s *Stats) int64 { return s.PMMInvalidSlots }},
		{"fuzzer_epochs_total", "epochs", "VM epoch slices completed, summed over the fleet", func(s *Stats) int64 {
			var n int64
			for _, vm := range s.VMs {
				n += vm.Epochs
			}
			return n
		}},
	}
	onlineCounters = []statCounter{
		{"online_retrains_total", "retrains", "continual-learning retrains kicked off", func(s *Stats) int64 { return s.ModelRetrains }},
		{"online_swaps_total", "swaps", "model hot-swaps applied at epoch barriers", func(s *Stats) int64 { return s.ModelSwaps }},
		{"online_swaps_skipped_total", "swaps", "candidate checkpoints rejected by the validation gate", func(s *Stats) int64 { return s.ModelSwapsSkipped }},
	}
)

// fleetMetrics is the reconciler's side of the registry: the published
// counters with the value each was last brought to, the fleet cost gauge
// and the per-VM gauges.
type fleetMetrics struct {
	rows     []statCounter
	counters []*obs.Counter
	last     []int64
	cost     *obs.Gauge
	lastCost int64
	vms      []*vmGauges
}

// newFleetMetrics registers the reconciler's instruments plus pull-model
// gauges over the campaign corpus; nil without a registry.
func newFleetMetrics(reg *obs.Registry, corp *corpus.Corpus, vms int, online bool) *fleetMetrics {
	if reg == nil {
		return nil
	}
	rows := fleetCounters
	if online {
		rows = append(rows[:len(rows):len(rows)], onlineCounters...)
	}
	m := &fleetMetrics{rows: rows, last: make([]int64, len(rows)), cost: reg.Gauge("fuzzer_cost_blocks", "blocks", "fleet simulated cost consumed so far")}
	for _, row := range rows {
		m.counters = append(m.counters, reg.Counter(row.name, row.unit, row.help))
	}
	for vm := 0; vm < vms; vm++ {
		m.vms = append(m.vms, newVMGauges(reg, vm))
	}
	reg.GaugeFunc("corpus_size", "programs", "programs in the shared corpus", func() int64 { return int64(corp.Len()) })
	reg.GaugeFunc("corpus_edges", "edges", "total edge coverage of the shared corpus", func() int64 { return int64(corp.TotalEdges()) })
	reg.GaugeFunc("corpus_snapshot_epoch", "epochs", "snapshot generation of the corpus entry list", func() int64 { return int64(corp.Epoch()) })
	return m
}

// publish brings the instruments up to s, a fold of the VM states whose
// simulated costs sum to cost. Counters and the cost gauge are moved by
// their increase since the last publication, never set, so a registry
// shared by concurrent campaigns sums them. Nil-safe.
func (m *fleetMetrics) publish(s *Stats, cost int64) {
	if m == nil {
		return
	}
	for i, row := range m.rows {
		v := row.value(s)
		m.counters[i].Add(v - m.last[i])
		m.last[i] = v
	}
	m.cost.Add(cost - m.lastCost)
	m.lastCost = cost
	for i, vm := range s.VMs {
		g := m.vms[i]
		g.execs.Set(vm.Executions)
		g.newEdges.Set(vm.NewEdges)
		g.queries.Set(vm.Queries)
		g.queueWaitNs.Set(vm.QueueWaitNs)
	}
}

// vmGauges are one VM's health gauges, so a live /metrics scrape shows
// per-VM progress and contention mid-campaign. Names follow the documented
// fuzzer_vm<i>_* pattern.
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
