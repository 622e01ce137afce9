// Shards: where a campaign's VM workers run. A Shard hosts a subset of the
// fleet against the campaign corpus — the reconciler's own corpus when the
// shard runs in-process, a full replica when it runs in a cluster worker —
// and exports epoch deltas: each VM's local additions, buffered journal
// events, cache keys and post-epoch state. The reconciler (reconciler.go)
// merges the deltas of all shards in ascending VM order and hands the
// accepted entries back, so any placement of VMs on shards replays the same
// merge schedule: the corpus, coverage, journal and counters are
// bit-identical per seed.
//
// The seam also makes VMs portable. A VMState snapshot is everything a
// worker's future behavior depends on — mutation RNG, flaky-crash RNG,
// simulated cost, counters, crash dedup table and in-flight prediction
// window — so a VM captured at a barrier can be restored onto any shard
// (worker churn) or into a campaign checkpoint and continue bit-identically;
// a fresh VM is simply InitialVMState restored. The only serving-dependent
// escape hatch is restoring a pending query: Restore resubmits it under a
// key of its own, which yields the reply the lost VM would have received
// when serving injects no faults (predictions are deterministic in the
// model), and the phantom-reply counter settles replies whose base entries
// died. Under injected faults a restored campaign therefore repeats itself
// but need not match the uninterrupted one.

package fuzzer

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/repro/snowplow/internal/corpus"
	"github.com/repro/snowplow/internal/exec"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/mutation"
	"github.com/repro/snowplow/internal/obs"
	"github.com/repro/snowplow/internal/online"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/serve"
	"github.com/repro/snowplow/internal/trace"
)

// vmSeedStride decorrelates per-VM RNG streams (the SplitMix64 increment).
const vmSeedStride = 0x9e3779b97f4a7c15

// epochView is a VM's frozen window onto the campaign for one epoch: the
// shared snapshot taken at the barrier plus the VM's own additions. The
// shared corpus is written only between epochs — by the reconciler's merge
// in-process, by applyAccepted on a replica — so the view reads its total
// cover in place, under the corpus read lock, and overlays the edges this
// VM found that the total lacks. All mutation is VM-private, so mid-epoch
// the fleet shares nothing mutable.
type epochView struct {
	corp   *corpus.Corpus
	base   []*corpus.Entry // shared entries frozen at epoch start
	local  *trace.Cover    // this epoch's edges the shared total lacks
	blocks trace.BlockSet  // shared covered blocks clone + local merges
	locals []Local         // this epoch's additions, in acceptance order
	// byText indexes locals by program text: the VM's dedup table during
	// the epoch, and afterwards how its shard finds the entries of its own
	// that won the merge.
	byText map[string]*corpus.Entry
}

func newEpochView(corp *corpus.Corpus, blocks *trace.BlockSet) *epochView {
	return &epochView{
		corp:   corp,
		base:   corp.Entries(),
		local:  trace.NewCover(),
		blocks: blocks.Clone(),
		byText: map[string]*corpus.Entry{},
	}
}

func (v *epochView) Choose(r *rng.Rand) *corpus.Entry {
	n := len(v.base) + len(v.locals)
	if n == 0 {
		return nil
	}
	i := r.Intn(n)
	if i < len(v.base) {
		return v.base[i]
	}
	return v.locals[i-len(v.base)].Entry
}

// Add applies the corpus acceptance policy against the VM's epoch-local
// view. Accepted entries are cloned off the caller's scratch buffers and
// queued for the reconciler; cross-VM duplicates are resolved at the
// barrier, not here.
func (v *epochView) Add(p *prog.Prog, cover *trace.Cover, blocks trace.BlockSet, traces [][]kernel.BlockID) int {
	// As in corpus.Add: only a program with new edges is serialized.
	if v.NewEdges(cover) == 0 {
		return 0
	}
	text := p.Serialize()
	if v.byText[text] != nil || v.corp.HasText(text) {
		return 0
	}
	var n int
	v.corp.ReadTotal(func(total *trace.Cover) { n = v.local.MergeBeyond(total, cover) })
	v.blocks.Merge(blocks)
	e := &corpus.Entry{Prog: p, Cover: cover.Clone(), Blocks: blocks.Clone(), Traces: traces, Text: text}
	v.byText[text] = e
	v.locals = append(v.locals, Local{Text: text, Traces: traces, Entry: e})
	return n
}

// NewEdges counts cover's edges in neither the shared total nor the VM's
// own; it never builds a list.
func (v *epochView) NewEdges(cover *trace.Cover) (n int) {
	v.corp.ReadTotal(func(total *trace.Cover) { n = v.local.NewEdgesBeyond(total, cover) })
	return n
}

// Edges is the number of edges covered as visible to this VM.
func (v *epochView) Edges() int { return v.corp.TotalEdges() + v.local.Len() }

// HasBlock reports whether the campaign, as visible to this VM, has covered
// the block; queryTargets uses it to pick fresh frontiers.
func (v *epochView) HasBlock(b kernel.BlockID) bool { return v.blocks.Has(b) }

// VMCounters are one VM's scalar campaign counters — the worker's only
// count of each event, which the reconciler folds into the campaign Stats
// and the registry's fuzzer_* counters — round-tripped through checkpoints
// so a restored VM's final stats line matches the uninterrupted run.
type VMCounters struct {
	Executions      int64
	PMMQueries      int64
	PMMPredictions  int64
	PMMFailed       int64
	PMMShed         int64
	PMMInvalidSlots int64
	Yield           YieldStats
}

// CrashState is one deduplicated crash observation in wire/checkpoint form:
// the full crash spec plus the report fields, so a restored VM reproduces
// both its dedup table and its report list.
type CrashState struct {
	Title      string
	Category   string
	Detector   string
	KnownSince string
	Flaky      bool
	ProgText   string
	Cost       int64
}

// report rebuilds the crash report the state was captured from.
func (cs CrashState) report() *CrashReport {
	return &CrashReport{
		Spec: &kernel.CrashSpec{
			Title:      cs.Title,
			Category:   cs.Category,
			Detector:   cs.Detector,
			KnownSince: cs.KnownSince,
			Flaky:      cs.Flaky,
		},
		ProgText: cs.ProgText,
		Cost:     cs.Cost,
	}
}

// PredState is one entry of a VM's prediction window in wire form. Exactly
// one of Pending (query in flight; Targets is what it asked for) or a
// non-nil Slots (reply arrived, not yet consumed) is meaningful. Consumed
// predictions are omitted: an absent state and a consumed state both make
// the next pick of the entry resubmit an identical query. Local marks a
// prediction attached to an entry from the VM's own just-finished epoch
// (not yet merged); the reconciler resolves it against the merge outcome
// before the state becomes canonical.
type PredState struct {
	Text    string
	Local   bool
	Pending bool
	Targets []kernel.BlockID
	Slots   []prog.GlobalSlot
	// Ref is a wire-level transfer optimization, like VMDelta.CrashBase:
	// where the cluster codec carries a prediction it names the base
	// entry by Ref instead of by Text. For a non-Local prediction Ref is
	// the entry's publish-order corpus index; for a Local one it is 1 + the
	// entry's index in the carrying delta's Locals, or 0 when the entry is
	// not among them (it lost an earlier merge, so the reconciler drops the
	// prediction without reading its text). Zero everywhere outside that
	// path: the receiver resolves Ref back to Text before the state is used.
	Ref int
}

// VMState is the complete portable state of one VM worker, captured at an
// epoch barrier. Restoring it onto any shard whose replica matches the
// barrier's corpus resumes the VM bit-identically.
type VMState struct {
	VM        int
	RNG       [4]uint64 // mutation/scheduling RNG (rng.Rand.State)
	Flaky     [4]uint64 // executor flaky-crash RNG
	Execs     int64     // machine counters
	BlocksRun int64
	Cost      int64
	Budget    int64
	Epochs    int64
	// Reconciled is the VM's post-dedup new-edge yield. It is owned by the
	// reconciler (only the merge knows who won): a shard neither reads nor
	// sets it.
	Reconciled int64
	// Phantom counts prediction replies owed to the VM whose base entries
	// died in a merge before the reply landed; see worker.phantom.
	Phantom int
	// QueueWaitNs is accumulated wall-clock barrier wait. Carried for the
	// stats line only; excluded from all determinism guarantees.
	QueueWaitNs int64
	Counters    VMCounters
	Crashes     []CrashState
	Preds       []PredState
}

// Local is one program a VM accepted during an epoch: the serialized
// program and its per-call traces — traces must travel because flaky crash
// blocks make re-execution nondeterministic. Entry is the corpus entry the
// merge inserts: the VM's own entry when the delta never left the process,
// rebuilt from Text and Traces (corpus.EntryFromTraces) by whoever decodes
// the delta off a wire.
type Local struct {
	Text   string
	Traces [][]kernel.BlockID
	Seeded bool // insert unconditionally instead of new-edge gated
	Entry  *corpus.Entry
}

// VMDelta is one VM's contribution to an epoch barrier: its local corpus
// additions in acceptance order, its buffered journal events, and its
// post-epoch state.
type VMDelta struct {
	VM     int
	Locals []Local
	Events []obs.Event
	State  VMState
	// Keys are the cache keys of the queries the VM submitted this epoch,
	// in submission order, for the reconciler's cache simulation. Only an
	// in-process shard reports them; they do not travel on the wire.
	Keys []qgraph.QueryKey
	// CrashBase is a wire-level transfer optimization: the number of
	// leading State.Crashes entries elided because the receiver already
	// holds them from the previous barrier (the per-VM crash table is
	// append-only, so the prior table is always an exact prefix). Zero
	// everywhere outside the cluster wire path; the cluster coordinator
	// re-prepends the elided prefix on receipt, so merged state never
	// sees a trimmed table.
	CrashBase int
}

// Accepted is one merge-accepted corpus entry in merge order. VM is the
// winning VM (-1 for checkpoint-snapshot replays, where no shard owns the
// entry). Entry is the authoritative corpus's entry and is set only
// in-process, where shard and reconciler share that corpus; a replica
// shard splices its own VM's original entry back in (preserving the pointer
// identity the prediction cache keys on) and rebuilds everyone else's.
type Accepted struct {
	VM     int
	Seeded bool
	Text   string
	Traces [][]kernel.BlockID
	Entry  *corpus.Entry
}

// InitialVMState is the state of VM vm before a campaign starts: fresh RNG
// streams, zero counters, and the VM's share of the budget (VM 0 takes the
// division remainder).
func InitialVMState(cfg Config, vm int) VMState {
	cfg = cfg.Normalized()
	per := cfg.Budget / int64(cfg.VMs)
	budget := per
	if vm == 0 {
		budget += cfg.Budget - per*int64(cfg.VMs)
	}
	return VMState{
		VM:     vm,
		RNG:    rng.New(cfg.Seed + vmSeedStride*uint64(vm)).State(),
		Flaky:  exec.InitialFlakyState(),
		Budget: budget,
	}
}

// Shard hosts a subset of a campaign's VM workers. It is driven strictly in
// barrier steps and is not safe for concurrent use by multiple drivers. An
// in-process *Shard is itself the reconciler's Transport.
type Shard struct {
	cfg Config
	// corp is the corpus the VMs snapshot: the reconciler's authoritative
	// corpus in-process, a full replica in a cluster worker.
	corp    *corpus.Corpus
	blocks  trace.BlockSet // covered blocks of corp
	workers map[int]*worker
	// lastLocals keeps each owned VM's latest-epoch entries by text until
	// the merge outcome arrives, so accepted entries that this shard's own
	// VM produced join the replica with their original pointer identity.
	// Each epoch a VM runs overwrites its slot and nothing else clears one:
	// a reassignment re-run (RunEpoch with explicit vms) lands between the
	// survivor's own epoch and that epoch's merge outcome, which must still
	// find the survivor's entries here.
	lastLocals map[int]map[string]*corpus.Entry
	syncEvery  int64
	m          *campaignMetrics // nil without metrics
	trackKeys  bool             // VMs buffer cache keys for the reconciler
}

// NewShard creates an empty shard over a corpus replica of its own, for a
// cluster worker. The config's Journal, when non-nil, acts purely as a
// flag: shard workers buffer their events for the reconciler and never
// record to a journal themselves, so any non-nil sentinel (e.g.
// obs.NewJournal(1)) enables event capture.
func NewShard(cfg Config) (*Shard, error) {
	cfg = cfg.Normalized()
	if cfg.Mode == ModeSnowplow && cfg.Server == nil {
		return nil, fmt.Errorf("fuzzer: shard in Snowplow mode requires an inference server")
	}
	if cfg.Kernel == nil {
		return nil, fmt.Errorf("fuzzer: shard requires a kernel")
	}
	corp := corpus.New()
	return newShard(cfg, corp, newCampaignMetrics(cfg.Metrics), false), nil
}

// newShard creates an empty shard over corp; cfg must be normalized.
func newShard(cfg Config, corp *corpus.Corpus, m *campaignMetrics, trackKeys bool) *Shard {
	per := cfg.Budget / int64(cfg.VMs)
	syncEvery := cfg.SyncEvery
	if syncEvery <= 0 {
		syncEvery = per / 32
	}
	if syncEvery <= 0 {
		syncEvery = 1
	}
	return &Shard{
		cfg:        cfg,
		corp:       corp,
		workers:    map[int]*worker{},
		lastLocals: map[int]map[string]*corpus.Entry{},
		syncEvery:  syncEvery,
		m:          m,
		trackKeys:  trackKeys,
	}
}

// Corpus returns the corpus the shard's VMs snapshot (see Shard.corp). It
// only grows, in publish order; callers must not add to it.
func (s *Shard) Corpus() *corpus.Corpus { return s.corp }

// owned returns the shard's VM ids in ascending order.
func (s *Shard) owned() []int {
	ids := make([]int, 0, len(s.workers))
	for id := range s.workers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// newWorker builds VM st.VM from its portable state: the only constructor
// of VM workers, fresh (InitialVMState) or captured at a barrier. The
// worker starts with an empty prediction window and no view; Shard.Restore
// re-attaches the window, and every epoch installs a fresh view.
func newWorker(cfg *Config, st VMState, m *campaignMetrics, trackKeys bool) *worker {
	exe := exec.NewMachine(cfg.Kernel, st.VM)
	exe.RestoreFlaky(st.Flaky)
	exe.Execs = st.Execs
	exe.BlocksRun = st.BlocksRun
	w := &worker{
		cfg:          cfg,
		id:           st.VM,
		r:            rng.FromState(st.RNG),
		exe:          exe,
		mut:          mutation.NewMutator(cfg.Kernel.Target),
		gen:          prog.NewGenerator(cfg.Kernel.Target),
		preds:        map[*corpus.Entry]*entryPrediction{},
		cnt:          st.Counters,
		crashes:      slices.Clone(st.Crashes),
		crashSeen:    map[string]bool{},
		cost:         st.Cost,
		budget:       st.Budget,
		epochs:       st.Epochs,
		queueWaitNs:  st.QueueWaitNs,
		phantom:      st.Phantom,
		scratchCover: trace.NewCover(),
		m:            m,
		trackKeys:    trackKeys,
	}
	for _, cs := range st.Crashes {
		w.crashSeen[cs.Title] = true
	}
	return w
}

// Restore adds one worker per VMState to the shard, resuming each VM
// exactly where its state was captured. The shard's corpus must already
// match the corpus the states were captured against, or prediction windows
// cannot be re-attached.
func (s *Shard) Restore(states []VMState) error {
	for _, st := range states {
		if _, dup := s.workers[st.VM]; dup {
			return fmt.Errorf("fuzzer: shard already hosts VM %d", st.VM)
		}
		w := newWorker(&s.cfg, st, s.m, s.trackKeys)
		for i, ps := range st.Preds {
			entry := s.corp.ByText(ps.Text)
			if entry == nil {
				return fmt.Errorf("fuzzer: VM %d prediction references unknown corpus entry %q", st.VM, ps.Text)
			}
			ep := &entryPrediction{}
			if ps.Pending {
				// Resubmit the captured query verbatim: no PMMQueries recount
				// (the original submission already counted) and no RNG draw
				// (target sampling happened before capture). The model is
				// deterministic, so the reply matches what the lost VM would
				// have harvested. A submit error can only mean a closed server;
				// the window entry then behaves as consumed.
				key := queryKey(s.cfg.Seed, st.VM, st.Counters.PMMQueries+int64(i), true)
				if reply, err := s.cfg.Server.Submit(serve.Query{
					Prog:    entry.Prog,
					Traces:  entry.Traces,
					Targets: ps.Targets,
				}, key); err == nil {
					ep.reply = reply
					ep.targets = append([]kernel.BlockID(nil), ps.Targets...)
				}
			} else {
				ep.pred = &serve.Prediction{Slots: append([]prog.GlobalSlot(nil), ps.Slots...)}
			}
			w.preds[entry] = ep
		}
		s.workers[st.VM] = w
	}
	return nil
}

// applyAccepted syncs the shard's corpus with the last barrier's merge
// outcome, in merge order. In-process the entries are already in the shared
// corpus and only the covered-block set needs them; a replica inserts each
// one — its own VM's original entry where it has it (the prediction cache
// keys on entry identity), otherwise rebuilt from the wire form.
func (s *Shard) applyAccepted(accepted []Accepted) error {
	for _, a := range accepted {
		e := a.Entry
		if e == nil {
			e = s.lastLocals[a.VM][a.Text]
		}
		if e == nil {
			p, err := prog.Parse(s.cfg.Kernel.Target, a.Text)
			if err != nil {
				return fmt.Errorf("fuzzer: bad accepted entry: %w", err)
			}
			e = corpus.EntryFromTraces(p, a.Traces)
		}
		if s.corp.ByText(e.Text) == e || s.corp.SeedEntry(e) {
			s.blocks.Merge(e.Blocks)
		}
	}
	return nil
}

// ApplySnapshot rebuilds the replica from a checkpoint's corpus snapshot
// (entries in publish order). The shard must be empty.
func (s *Shard) ApplySnapshot(entries []Accepted) error {
	if s.corp.Len() != 0 {
		return fmt.Errorf("fuzzer: snapshot onto non-empty shard replica")
	}
	return s.applyAccepted(entries)
}

// RunEpoch is one barrier step: sync with the previous merge's accepted
// entries, then fuzz one slice. With vms == nil every owned VM with
// remaining budget runs (the normal schedule, identical on every shard
// because cost is deterministic); a non-nil vms lists specific VMs — the
// reassignment path, where freshly restored VMs re-run an epoch their dead
// shard never delivered. Deltas are returned in ascending VM order with
// each VM's pre-merge state.
func (s *Shard) RunEpoch(epoch int64, accepted []Accepted, vms []int) ([]VMDelta, error) {
	if err := s.applyAccepted(accepted); err != nil {
		return nil, err
	}
	var ws []*worker
	if vms == nil {
		for _, id := range s.owned() {
			if w := s.workers[id]; w.cost < w.budget {
				ws = append(ws, w)
			}
		}
	} else {
		sorted := append([]int(nil), vms...)
		sort.Ints(sorted)
		for _, id := range sorted {
			w := s.workers[id]
			if w == nil {
				return nil, fmt.Errorf("fuzzer: epoch requested for VM %d not on this shard", id)
			}
			ws = append(ws, w)
		}
	}
	// Refresh views, drain last epoch's prediction replies, fuzz one
	// SyncEvery slice of simulated cost.
	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range ws {
		w.view = newEpochView(s.corp, &s.blocks)
		w.epoch = epoch
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			t0 := time.Now()
			w.harvestPending()
			w.runEpoch(s.syncEvery)
			w.epochElapsed = time.Since(t0)
		}(w)
	}
	wg.Wait()
	barrier := time.Since(start)
	deltas := make([]VMDelta, 0, len(ws))
	for _, w := range ws {
		if w.err != nil {
			return nil, w.err
		}
		w.epochs++
		wait := (barrier - w.epochElapsed).Nanoseconds()
		if wait > 0 {
			w.queueWaitNs += wait
		}
		if s.m != nil {
			s.m.epochDur.Observe(w.epochElapsed.Nanoseconds())
			if wait > 0 {
				s.m.barrierWait.Observe(wait)
			}
		}
		s.lastLocals[w.id] = w.view.byText
		deltas = append(deltas, VMDelta{VM: w.id, Locals: w.view.locals, Events: w.events, Keys: w.keyBuf, State: captureState(w, s.corp)})
		w.events, w.keyBuf = nil, nil
	}
	return deltas, nil
}

// runEpoch fuzzes until the worker has consumed one SyncEvery slice of its
// budget (or the budget is exhausted).
func (w *worker) runEpoch(syncEvery int64) {
	limit := w.cost + syncEvery
	if limit > w.budget {
		limit = w.budget
	}
	for w.cost < limit {
		if err := w.step(); err != nil {
			w.err = err
			return
		}
	}
}

// DrainPredictions blocking-drains every owned VM's in-flight prediction
// replies in ascending VM order without capturing state. A model hot-swap
// calls it before the serving surface changes generations, so every query
// is answered by the model generation of its submission epoch. Harvested
// replies stay invisible until each VM's next epoch, so the drain moves no
// information across the barrier.
func (s *Shard) DrainPredictions() {
	for _, id := range s.owned() {
		s.workers[id].harvestPending()
	}
}

// PushModel is the in-process Transport's hot swap: drain, then swap the
// campaign's own server.
func (s *Shard) PushModel(sw *online.Swap) error {
	swapper, ok := s.cfg.Server.(serve.ModelSwapper)
	if !ok {
		return fmt.Errorf("fuzzer: serving surface %T cannot hot-swap models", s.cfg.Server)
	}
	s.DrainPredictions()
	if _, err := swapper.SwapModel(sw.Model, sw.Version); err != nil {
		return fmt.Errorf("fuzzer: hot-swap model v%d: %w", sw.Version, err)
	}
	return nil
}

// FinalDrain blocking-drains every owned VM's outstanding prediction
// replies and returns the final states in ascending VM order. It cannot
// fail; the error is the Transport signature's.
func (s *Shard) FinalDrain() ([]VMState, error) {
	var states []VMState
	for _, id := range s.owned() {
		w := s.workers[id]
		w.harvestPending()
		states = append(states, captureState(w, s.corp))
	}
	return states, nil
}

// captureState snapshots a worker into its portable wire form. Prediction
// windows are exported sorted by entry text (map order must not leak), with
// entries not yet in corp (the VM's shard's corpus) marked Local for the
// reconciler to resolve against the merge outcome.
func captureState(w *worker, corp *corpus.Corpus) VMState {
	st := VMState{
		VM:          w.id,
		RNG:         w.r.State(),
		Flaky:       w.exe.FlakyState(),
		Execs:       w.exe.Execs,
		BlocksRun:   w.exe.BlocksRun,
		Cost:        w.cost,
		Budget:      w.budget,
		Epochs:      w.epochs,
		Phantom:     w.phantom,
		QueueWaitNs: w.queueWaitNs,
		Counters:    w.cnt,
		Crashes:     slices.Clone(w.crashes), // nil when empty, as decoded states are
	}
	for entry, ep := range w.preds {
		if ep.pred == nil && ep.reply == nil {
			continue // consumed: absent and consumed behave identically
		}
		ps := PredState{Text: entry.Text, Local: corp.ByText(entry.Text) != entry}
		if ep.reply != nil {
			ps.Pending = true
			ps.Targets = append([]kernel.BlockID(nil), ep.targets...)
		} else {
			ps.Slots = append([]prog.GlobalSlot(nil), ep.pred.Slots...)
		}
		st.Preds = append(st.Preds, ps)
	}
	sort.Slice(st.Preds, func(i, j int) bool { return st.Preds[i].Text < st.Preds[j].Text })
	return st
}
