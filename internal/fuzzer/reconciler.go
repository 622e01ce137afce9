// The epoch-barrier engine. A fleet of simulated VMs fuzzing one corpus
// concurrently would make every campaign irreproducible, so the fleet runs
// in lockstep epochs and one Reconciler owns everything the VMs share:
//
//   - At an epoch start each VM snapshots the campaign corpus (an
//     epochView: the frozen entry list, the total cover read in place, and
//     an overlay of the VM's own intra-epoch additions).
//   - VMs then fuzz independently for a bounded slice of simulated cost
//     (Config.SyncEvery) with no shared mutable state; prediction replies
//     are harvested only at the barrier (harvestPending), so inference
//     latency never leaks wall-clock ordering into the campaign.
//   - At the barrier the reconciler merges each VM's additions into the
//     authoritative corpus in ascending VM order under a global sequence
//     counter, so acceptance (which program wins a text-dedup tie, which
//     edges count as new) is a pure function of (epoch, VM index, local
//     order) — never of goroutine scheduling, process placement or
//     network arrival order.
//
// VMs live in Shards, and the reconciler reaches them through a Transport
// of three operations. A single-host campaign, at any -vms, is the
// reconciler over one in-process Shard that shares its corpus and passes
// structs; a cluster campaign is the same reconciler over
// internal/cluster's coordinator, which carries the same three operations
// across TCP and adds only what a network needs (decoding, worker loss,
// checkpoints). Campaigns are therefore bit-reproducible per seed at any VM
// placement; the only wall-clock observable is the per-VM QueueWaitNs
// counter (explicitly excluded from the determinism guarantee).

package fuzzer

import (
	"fmt"
	"sort"

	"github.com/repro/snowplow/internal/corpus"
	"github.com/repro/snowplow/internal/obs"
	"github.com/repro/snowplow/internal/online"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/qgraph"
)

// Transport carries the reconciler's three barrier operations to wherever
// the campaign's VMs run.
type Transport interface {
	// RunEpoch syncs every corpus replica with the previous merge's
	// accepted entries, fuzzes one epoch slice on the active VMs (ascending
	// ids) and returns exactly one delta per active VM, in any order.
	RunEpoch(epoch int64, accepted []Accepted, active []int) ([]VMDelta, error)
	// PushModel makes an accepted hot-swap live fleet-wide. Every VM's
	// in-flight predictions are drained first, so each query is answered
	// by the model generation of its submission epoch.
	PushModel(sw *online.Swap) error
	// FinalDrain blocking-drains every VM's outstanding prediction replies
	// and returns all final states in ascending VM order. Whether a late
	// reply counts as a prediction or a failure must depend on its
	// content, not on wall-clock arrival order — hence blocking.
	FinalDrain() ([]VMState, error)
}

// BarrierState is the reconciler's complete state between two barriers —
// with the corpus, the journal and the online controller's own resume
// surface, everything a campaign checkpoint has to carry.
type BarrierState struct {
	States     []VMState // canonical, indexed by VM id
	Epoch      int64     // last merged epoch
	Seq        int64     // merge sequence counter (merge-order audit trail)
	NextSample int64     // coverage-series cursor, in fleet simulated cost
	Series     []Point
	// PendingSeed buffers the seed pass's journal events until VM 0's first
	// epoch delta is flushed, so they sequence exactly where VM 0's own
	// buffer would have put them.
	PendingSeed []obs.Event
	SeedFlushed bool
	// ModelVersion is the serving checkpoint generation: the last accepted
	// swap (0 = the initial model).
	ModelVersion int64
}

// Reconciler runs one campaign's epoch barriers: it owns the authoritative
// corpus, the canonical VM states, the journal order, the coverage series
// and the online-learning schedule, and drives the VMs through a Transport.
type Reconciler struct {
	cfg      Config
	corp     *corpus.Corpus
	ctl      *online.Controller // nil for frozen-model campaigns
	pub      *fleetMetrics      // nil without Config.Metrics
	cacheSim *qgraph.CacheSim   // nil when no shard reports cache keys

	BarrierState
	// accepted is the last merge's outcome, handed to the next RunEpoch.
	accepted []Accepted
}

// NewReconciler starts a fresh campaign: initial VM states, the
// campaign-start journal record, and the seed pass — VM 0 executes the seed
// corpus straight into corp (outside the merge sequence, as seeds always
// were), so every VM's first snapshot already holds the seeds. cfg.Journal
// is the journal the campaign records into and cfg.Metrics the registry it
// publishes its counters to; ctl is nil for a frozen model.
func NewReconciler(cfg Config, corp *corpus.Corpus, ctl *online.Controller) (*Reconciler, error) {
	return newReconciler(cfg.Normalized(), corp, ctl, nil, nil)
}

func newReconciler(cfg Config, corp *corpus.Corpus, ctl *online.Controller, m *campaignMetrics, cacheSim *qgraph.CacheSim) (*Reconciler, error) {
	r := &Reconciler{cfg: cfg, corp: corp, ctl: ctl, cacheSim: cacheSim}
	for vm := 0; vm < cfg.VMs; vm++ {
		r.States = append(r.States, InitialVMState(cfg, vm))
	}
	r.NextSample = cfg.SampleEvery
	recordCampaignStart(cfg.Journal, &r.cfg)

	w := newWorker(&r.cfg, r.States[0], m, false)
	for _, p := range cfg.SeedCorpus {
		if err := w.seed(p, corp); err != nil {
			return nil, err
		}
	}
	w.jevent(obs.EventSeed, int64(corp.Len()), "")
	r.PendingSeed = w.events
	r.States[0] = captureState(w, corp)
	for _, e := range corp.Entries() {
		r.accepted = append(r.accepted, Accepted{VM: 0, Seeded: true, Text: e.Text, Traces: e.Traces, Entry: e})
	}
	r.pub = newFleetMetrics(cfg.Metrics, corp, cfg.VMs, ctl != nil)
	r.publish(r.States)
	return r, nil
}

// ResumeReconciler continues a campaign from a checkpointed barrier. corp
// must already hold the checkpoint's corpus: the snapshot was taken after a
// merge, so the first barrier after resume hands the transport nothing.
// Its first publication carries the campaign's lifetime totals.
func ResumeReconciler(cfg Config, corp *corpus.Corpus, ctl *online.Controller, st BarrierState) *Reconciler {
	r := &Reconciler{cfg: cfg.Normalized(), corp: corp, ctl: ctl, BarrierState: st}
	r.pub = newFleetMetrics(r.cfg.Metrics, corp, r.cfg.VMs, ctl != nil)
	r.publish(r.States)
	return r
}

// Run executes barriers until every VM's budget is exhausted, drains the
// fleet and returns the campaign stats. afterBarrier, when non-nil, runs
// after each completed barrier (merge, journal, online schedule, series,
// publication) — the cluster coordinator checkpoints there.
func (r *Reconciler) Run(tr Transport, afterBarrier func() error) (*Stats, error) {
	for {
		var active []int
		for vm := range r.States {
			if r.States[vm].Cost < r.States[vm].Budget {
				active = append(active, vm)
			}
		}
		if len(active) == 0 {
			break
		}
		r.Epoch++
		deltas, err := tr.RunEpoch(r.Epoch, r.accepted, active)
		if err != nil {
			return nil, err
		}
		if len(deltas) != len(active) {
			return nil, fmt.Errorf("fuzzer: epoch %d returned %d deltas for %d active VMs", r.Epoch, len(deltas), len(active))
		}
		r.merge(deltas)
		// Online continual learning runs strictly after the merge and the
		// epoch record: apply a due swap, then kick off the next retrain.
		if r.ctl != nil {
			if err := r.onlineBarrier(tr); err != nil {
				return nil, err
			}
		}
		r.sample()
		r.publish(r.States)
		if afterBarrier != nil {
			if err := afterBarrier(); err != nil {
				return nil, err
			}
		}
	}

	// An in-flight retrain's swap is never applied — the campaign is over —
	// but the trainer goroutine must not outlive the run.
	if r.ctl != nil {
		r.ctl.Wait()
	}
	finals, err := tr.FinalDrain()
	if err != nil {
		return nil, err
	}
	// Seed events never attached to a VM 0 barrier (a budget that dies
	// before VM 0's first epoch) still belong in the journal.
	r.flushSeedEvents()
	stats, fleet := r.foldStats(finals), fleetCost(finals)
	r.pub.publish(stats, fleet)
	stats.Series = r.Series
	if len(stats.Series) == 0 || stats.Series[len(stats.Series)-1].Cost < fleet {
		stats.Series = append(stats.Series, Point{Cost: fleet, Edges: stats.FinalEdges})
	}
	recordCampaignEnd(r.cfg.Journal, stats)
	return stats, nil
}

// merge applies one barrier's deltas to the authoritative state in
// ascending VM order: cache keys fold into the simulation, every local is
// sequenced and re-gated against the shared cover, each VM's canonical
// state becomes its delta state with the reconciler-owned fields overridden
// (the VM cannot know who won the merge), and the buffered journal events
// flush in the order the corpus merge just used, closed by the epoch record.
func (r *Reconciler) merge(deltas []VMDelta) {
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].VM < deltas[j].VM })

	// Submission order within a VM, VM order across the fleet: the hit/miss
	// split is pinned to reconcile order instead of wall-clock arrival.
	if r.cacheSim != nil {
		for _, d := range deltas {
			for _, k := range d.Keys {
				r.cacheSim.Touch(k)
			}
		}
	}

	winners := map[string]int{}
	newEdges := make([]int64, len(r.States))
	var accepted []Accepted
	for _, d := range deltas {
		for _, l := range d.Locals {
			r.Seq++
			n := 0
			if l.Seeded {
				if !r.corp.SeedEntry(l.Entry) {
					continue
				}
			} else if n = r.corp.AddEntry(l.Entry); n == 0 {
				continue
			}
			accepted = append(accepted, Accepted{VM: d.VM, Seeded: l.Seeded, Text: l.Text, Traces: l.Traces, Entry: l.Entry})
			winners[l.Text] = d.VM
			newEdges[d.VM] += int64(n)
		}
	}
	r.accepted = accepted

	for _, d := range deltas {
		st := d.State
		st.Reconciled = r.States[st.VM].Reconciled + newEdges[st.VM]
		var preds []PredState
		for _, ps := range st.Preds {
			if !ps.Local {
				preds = append(preds, ps)
				continue
			}
			if w, ok := winners[ps.Text]; ok && w == st.VM {
				// The VM's own entry survived the merge; the prediction
				// window rides along (the owning shard keeps the entry
				// pointer, so the live cache agrees).
				ps.Local = false
				preds = append(preds, ps)
				continue
			}
			// The base entry lost the merge. A pending query's reply is
			// still owed to the VM (the live worker harvests it next epoch),
			// so a restored VM must account for it: Phantom counts replies
			// to settle without a live channel.
			if ps.Pending {
				st.Phantom++
			}
		}
		st.Preds = preds
		r.States[st.VM] = st
	}

	if jn := r.cfg.Journal; jn != nil {
		for _, d := range deltas {
			if d.VM == 0 {
				r.flushSeedEvents()
			}
			for _, e := range d.Events {
				jn.Record(e)
			}
		}
		jn.Record(obs.Event{
			Kind: obs.EventEpoch, VM: -1, Epoch: r.Epoch,
			Value:  int64(r.corp.Len()),
			Detail: fmt.Sprintf("edges=%d", r.corp.TotalEdges()),
		})
	}
}

func (r *Reconciler) flushSeedEvents() {
	if r.SeedFlushed {
		return
	}
	for _, e := range r.PendingSeed {
		r.cfg.Journal.Record(e)
	}
	r.PendingSeed, r.SeedFlushed = nil, true
}

// onlineBarrier applies the continual-learning schedule at one epoch
// barrier: resolve a due checkpoint generation — an accepted one goes live
// fleet-wide through the transport, one that lost the validation gate is
// only journaled — then kick off the next retrain from the freshly merged
// corpus if this barrier is a kickoff point. Both outcomes are journaled
// with their canonical payloads (Swap.Detail, online.KickoffDetail), so
// replay is swap-for-swap. A skipped swap needs no drain: every VM
// blocking-drains at its next epoch start anyway and no model changed
// underneath the in-flight queries.
func (r *Reconciler) onlineBarrier(tr Transport) error {
	if sw := r.ctl.SwapDue(r.Epoch); sw != nil {
		if sw.Accepted {
			if err := tr.PushModel(sw); err != nil {
				return err
			}
			r.ModelVersion = sw.Version
		}
		r.cfg.Journal.Record(obs.Event{
			Kind: obs.EventModelSwap, VM: -1, Epoch: r.Epoch,
			Value: sw.Version, Detail: sw.Detail(),
		})
	}
	if r.ctl.ShouldKickoff(r.Epoch, r.corp.Len()) {
		entries := r.corp.Entries()
		bases := make([]*prog.Prog, len(entries))
		for i, e := range entries {
			bases[i] = e.Prog
		}
		v := r.ctl.Kickoff(r.Epoch, bases)
		r.cfg.Journal.Record(obs.Event{
			Kind: obs.EventModelTrain, VM: -1, Epoch: r.Epoch,
			Value: v, Detail: online.KickoffDetail(len(bases)),
		})
	}
	return nil
}

// fleetCost is the fleet's simulated time: the sum of per-VM costs.
func fleetCost(states []VMState) (cost int64) {
	for _, st := range states {
		cost += st.Cost
	}
	return cost
}

// sample extends the coverage series against fleet simulated time,
// evaluated only at barriers, where the shared total is well-defined.
func (r *Reconciler) sample() {
	if r.cfg.SampleEvery <= 0 {
		return
	}
	for fleet := fleetCost(r.States); r.NextSample <= fleet; r.NextSample += r.cfg.SampleEvery {
		r.Series = append(r.Series, Point{Cost: r.NextSample, Edges: r.corp.TotalEdges()})
	}
}

// publish brings the registry's instruments up to a fold of states; it
// folds nothing without Config.Metrics.
func (r *Reconciler) publish(states []VMState) {
	if r.pub != nil {
		r.pub.publish(r.foldStats(states), fleetCost(states))
	}
}

// foldStats folds per-VM states into the campaign Stats (without the
// coverage series) in ascending VM order: sums for the scalar counters,
// title-deduplicated crash reports, one VMStat per VM, and the corpus,
// cache and online totals. Run folds the drained final states; every
// publication folds the states of its barrier.
func (r *Reconciler) foldStats(states []VMState) *Stats {
	stats := &Stats{Mode: r.cfg.Mode}
	seen := map[string]bool{} // crash titles already reported
	for vm, st := range states {
		cnt := st.Counters
		stats.Executions += cnt.Executions
		stats.PMMQueries += cnt.PMMQueries
		stats.PMMPredictions += cnt.PMMPredictions
		stats.PMMFailed += cnt.PMMFailed
		stats.PMMShed += cnt.PMMShed
		stats.PMMInvalidSlots += cnt.PMMInvalidSlots
		stats.Yield.add(cnt.Yield)
		for _, cs := range st.Crashes {
			if !seen[cs.Title] {
				seen[cs.Title] = true
				stats.Crashes = append(stats.Crashes, cs.report())
			}
		}
		stats.VMs = append(stats.VMs, VMStat{
			VM:          vm,
			Executions:  cnt.Executions,
			NewEdges:    r.States[vm].Reconciled,
			Queries:     cnt.PMMQueries,
			Epochs:      st.Epochs,
			QueueWaitNs: st.QueueWaitNs,
		})
	}
	stats.CorpusSize = r.corp.Len()
	stats.FinalEdges = r.corp.TotalEdges()
	stats.PMMCacheHits, stats.PMMCacheMisses = cacheStats(r.cacheSim, r.cfg.Server)
	if r.ctl != nil {
		stats.ModelRetrains, stats.ModelSwaps, stats.ModelSwapsSkipped = r.ctl.Stats()
		stats.ModelVersion = r.ModelVersion
	}
	return stats
}
