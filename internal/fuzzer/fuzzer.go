// Package fuzzer implements the fuzzing loop of the paper's Figure 1 in two
// configurations: the Syzkaller baseline (semi-random argument localization)
// and Snowplow (PMM-guided argument localization with asynchronous
// inference and a low-probability random fallback, §3.4).
//
// Time is simulated: each executed test costs its trace length in blocks,
// and the coverage time series is sampled against that cost budget, so the
// comparison between modes is independent of host speed. Inference runs on
// the serve package's worker pool and — as in the paper's deployment —
// consumes no fuzzing budget: while a prediction is pending the fuzzer
// performs its other mutation work, catching up with the PMM-selected
// argument mutations when the reply arrives. Every query goes through
// serve's keyed submit path under a key derived from the seed, so host
// load and injected faults never make a campaign diverge between runs.
//
// Campaigns scale across simulated VMs (Config.VMs): each VM worker owns
// its execution machine, RNG and prediction window and runs the full
// generate→exec→trace→triage loop inside a Shard, synchronizing with the
// campaign corpus through the epoch-barrier Reconciler (reconciler.go) —
// the one engine behind every single-host campaign, one VM or many, and
// internal/cluster's coordinator.
package fuzzer

import (
	"fmt"
	"time"

	"github.com/repro/snowplow/internal/cfa"
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

// Mode selects the fuzzer configuration.
type Mode int

// The fuzzer modes.
const (
	ModeSyzkaller Mode = iota // baseline: random argument localization
	ModeSnowplow              // PMM-guided argument localization
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeSnowplow {
		return "snowplow"
	}
	return "syzkaller"
}

// The schedule Snowplow shares with the Syzkaller baseline (§3.4: only the
// localizer differs between the modes). They are constants, not Config
// fields, so the two arms of a comparison cannot drift apart on them.
const (
	// generateProb is the chance of generating a fresh program instead of
	// mutating a corpus entry.
	generateProb = 0.15
	// mutationsPerPrediction scales how many argument mutations each
	// PMM-predicted slot receives (§3.4: more predicted arguments mean
	// more mutation attempts for the base program).
	mutationsPerPrediction = 4
	// maxQueryTargets bounds the desired-target sample per query.
	maxQueryTargets = 16
)

// Config parameterizes a fuzzing campaign.
type Config struct {
	Mode   Mode
	Kernel *kernel.Kernel
	An     *cfa.Analysis
	Seed   uint64
	// Budget is the total simulated execution cost (blocks executed),
	// shared evenly across the VM fleet.
	Budget int64
	// SampleEvery is the coverage time-series period in fleet simulated
	// cost. Series points are taken at reconcile barriers (32 per VM by
	// default, see SyncEvery): each barrier records one point per period
	// crossed since the last, all at the barrier's edge count.
	SampleEvery int64
	// VMs is the number of simulated fuzzing VMs running the campaign
	// concurrently against the shared corpus (0 means 1). Their results
	// merge deterministically through the epoch reconciler, so a fixed seed
	// reproduces the same campaign at any worker scheduling.
	VMs int
	// SyncEvery is the per-VM simulated cost between corpus
	// synchronization barriers (0 = per-VM budget / 32).
	SyncEvery int64
	// Server performs PMM inference (required in ModeSnowplow). It is any
	// serve.Inferrer: a dedicated *serve.Server, or one *serve.Tenant of a
	// shared multi-tenant server when several campaigns run against the
	// same model. Campaigns submit through its Submit path only.
	Server serve.Inferrer
	// FallbackProb is the probability of random argument localization in
	// Snowplow mode (§3.4's fallback mechanism).
	FallbackProb float64
	// SeedCorpus are initial programs (executed and added unconditionally).
	SeedCorpus []*prog.Prog
	// SyncInference disables the asynchronous integration (§3.4 ablation):
	// every guided mutation blocks on a fresh inference call, stalling the
	// mutator for the full round trip.
	SyncInference bool
	// Metrics, when non-nil, receives the campaign's instrument bundle
	// (see OBSERVABILITY.md for the catalog). Nil disables metrics at
	// zero measurable cost — hot paths pay one nil check per site.
	Metrics *obs.Registry
	// Journal, when non-nil, records structured campaign events (epoch
	// barriers, new-edge discoveries, crash dedup, model retrains and swaps)
	// with seed-deterministic sequence numbers; see obs.Journal.
	Journal *obs.Journal
	// Online, when non-nil, enables continual learning: a background
	// controller (internal/online) retrains the PMM on the campaign's own
	// corpus at fixed epoch barriers and hot-swaps accepted checkpoints into
	// the server at barrier epochs, without pausing VMs. Requires
	// ModeSnowplow and a Server implementing serve.ModelSwapper (a local
	// *serve.Server or *serve.Tenant). The swap schedule is defined in
	// barrier epochs. The retrain runs nn.Workers() wide (wall-clock only:
	// results are bit-identical at any width).
	Online *online.Config
}

// Point is one coverage time-series sample.
type Point struct {
	Cost  int64 // simulated time
	Edges int   // accumulated edge coverage
}

// CrashReport is one deduplicated crash observation.
type CrashReport struct {
	Spec     *kernel.CrashSpec
	ProgText string // serialized crashing program
	Cost     int64  // VM-local simulated time of first observation
}

// VMStat is one VM worker's contribution to the campaign, for observing
// degradation under contention.
type VMStat struct {
	VM         int
	Executions int64
	// NewEdges is the VM's new-edge yield: edges it contributed to the
	// shared corpus (after cross-VM deduplication by the reconciler).
	NewEdges int64
	// Queries counts the VM's PMM inference queries.
	Queries int64
	// Epochs is how many reconcile epochs the VM ran.
	Epochs int64
	// QueueWaitNs is wall-clock time the VM spent blocked at reconcile
	// barriers waiting for slower VMs (not simulated time; excluded from
	// determinism guarantees).
	QueueWaitNs int64
}

// Stats is the campaign outcome.
type Stats struct {
	Mode       Mode
	Series     []Point
	Crashes    []*CrashReport
	Executions int64
	CorpusSize int
	FinalEdges int
	// PMMQueries and PMMPredictions count inference traffic (Snowplow).
	PMMQueries     int64
	PMMPredictions int64
	// PMMFailed counts queries whose reply was a terminal serving error
	// (retries exhausted, server closed).
	PMMFailed int64
	// PMMShed counts queries refused at submission (a closed server); they
	// count in neither PMMQueries nor PMMFailed.
	PMMShed int64
	// PMMInvalidSlots counts predicted slots rejected as out of range
	// (corrupt or stale predictions must never crash the mutator).
	PMMInvalidSlots int64
	// PMMCacheHits/PMMCacheMisses attribute the campaign's inference
	// queries to the serving graph-encoding cache. When the server exposes
	// its cache capacity (a local *serve.Server or *serve.Tenant) they come
	// from a deterministic campaign-side LRU simulation fed in reconcile
	// order, so the split is a pure function of the seed even under
	// concurrent serving workers; otherwise they mirror the server's
	// wall-clock counters at campaign end (zero without a cache).
	PMMCacheHits   int64
	PMMCacheMisses int64
	// Yield breaks down executions and resulting new edges by work class,
	// for diagnosing where coverage comes from.
	Yield YieldStats
	// VMs holds per-VM counters (one element per simulated VM).
	VMs []VMStat
	// ModelRetrains / ModelSwaps / ModelSwapsSkipped count online-learning
	// retrain kickoffs and the gate outcomes of their candidate
	// checkpoints; ModelVersion is the serving checkpoint generation at
	// campaign end (0 = the initial frozen model). All zero unless
	// Config.Online is set.
	ModelRetrains     int64
	ModelSwaps        int64
	ModelSwapsSkipped int64
	ModelVersion      int64
}

// YieldStats attributes executions and new edges to work classes.
type YieldStats struct {
	GuidedExecs, GuidedEdges     int64 // PMM-localized argument mutations
	RandArgExecs, RandArgEdges   int64 // randomly localized argument mutations
	OtherMutExecs, OtherMutEdges int64 // call insertion/removal
	GenerateExecs, GenerateEdges int64 // freshly generated programs
}

// add accumulates another breakdown into y.
func (y *YieldStats) add(o YieldStats) {
	y.GuidedExecs += o.GuidedExecs
	y.GuidedEdges += o.GuidedEdges
	y.RandArgExecs += o.RandArgExecs
	y.RandArgEdges += o.RandArgEdges
	y.OtherMutExecs += o.OtherMutExecs
	y.OtherMutEdges += o.OtherMutEdges
	y.GenerateExecs += o.GenerateExecs
	y.GenerateEdges += o.GenerateEdges
}

// Fuzzer is one configured campaign.
type Fuzzer struct {
	cfg     Config
	corp    *corpus.Corpus
	metrics *campaignMetrics // nil when Config.Metrics is nil

	// cacheSim replays the serving graph-cache LRU over the campaign's
	// query keys in reconcile order, making the hit/miss split
	// seed-deterministic (nil when the server's cache capacity is unknown).
	cacheSim *qgraph.CacheSim
}

// worker is one simulated fuzzing VM: the full generate→exec→trace→triage
// loop with its own execution machine, RNG stream, prediction window and
// scratch buffers, fuzzing one epoch at a time against its epochView.
type worker struct {
	cfg  *Config
	id   int
	r    *rng.Rand
	exe  *exec.Machine
	mut  *mutation.Mutator
	gen  *prog.Generator
	view *epochView

	preds map[*corpus.Entry]*entryPrediction
	// cnt is the VM's one count of each event and crashes its crash table
	// in first-observation order, both in VMState form; crashSeen indexes
	// the table by title.
	cnt       VMCounters
	crashes   []CrashState
	crashSeen map[string]bool

	// Observability (all optional): the campaign's wall-clock histograms,
	// the VM's buffered mid-epoch journal events (flushed by the
	// reconciler in VM order) and the VM's current epoch number.
	m      *campaignMetrics
	events []obs.Event
	epoch  int64

	cost   int64
	budget int64

	// Barrier-engine bookkeeping (see shard.go).
	err          error         // first step error inside an epoch
	epochElapsed time.Duration // wall-clock of the worker's last epoch
	queueWaitNs  int64         // accumulated barrier wait
	epochs       int64

	// trackKeys makes the VM buffer its submitted queries' cache keys in
	// submission order, for the reconciler to fold into the cache
	// simulation at the barrier in VM order.
	trackKeys bool
	keyBuf    []qgraph.QueryKey

	// phantom counts in-flight replies owed to this VM whose base entries
	// could not be reconstructed when the VM was restored from a cluster
	// checkpoint (they lost a merge and died before the reply landed). The
	// original VM would have harvested each as one successful prediction
	// at its next barrier, so the restored VM settles the same count there
	// (cluster determinism assumes fault-free serving, like the journal).
	phantom int

	// scratch buffers reused across executions (trace.EdgesOfInto /
	// trace.BlockSetOfInto); the corpus clones them on acceptance.
	scratchCover  *trace.Cover
	scratchBlocks trace.BlockSet
}

// entryPrediction caches PMM's localization for one corpus entry. A
// prediction goes stale once the campaign covers most of the targets it was
// computed for; stale predictions are dropped and re-queried, since guiding
// mutations toward already-covered code wastes budget.
type entryPrediction struct {
	pred    *serve.Prediction
	reply   <-chan serve.Prediction
	targets []kernel.BlockID // desired targets the prediction was computed for
}

// Normalized returns the config with the same defaults New applies, so
// out-of-process campaign engines (internal/cluster) resolve knobs exactly
// like a single-host campaign: a cluster worker and the local fuzzer must
// never disagree on an effective probability or window size.
func (c Config) Normalized() Config {
	if c.SampleEvery <= 0 {
		c.SampleEvery = c.Budget / 100
		if c.SampleEvery <= 0 {
			c.SampleEvery = 1
		}
	}
	if c.VMs <= 0 {
		c.VMs = 1
	}
	if c.FallbackProb == 0 {
		c.FallbackProb = 0.1
	}
	return c
}

// New creates a fuzzer. It panics if Snowplow mode lacks a server.
func New(cfg Config) *Fuzzer {
	if cfg.Mode == ModeSnowplow && cfg.Server == nil {
		panic("fuzzer: Snowplow mode requires an inference server")
	}
	cfg = cfg.Normalized()
	f := &Fuzzer{
		cfg:  cfg,
		corp: corpus.New(),
	}
	f.metrics = newCampaignMetrics(cfg.Metrics)
	if cfg.Server != nil {
		if gc, ok := cfg.Server.(interface{ GraphCacheCapacity() int }); ok {
			if capacity := gc.GraphCacheCapacity(); capacity > 0 {
				f.cacheSim = qgraph.NewCacheSim(capacity)
			}
		}
	}
	return f
}

// Corpus exposes the fuzzer's corpus (for directed fuzzing and tests): the
// reconciler's authoritative corpus, holding the very entries the VMs built.
func (f *Fuzzer) Corpus() *corpus.Corpus { return f.corp }

// recordCampaignStart / recordCampaignEnd bracket a campaign's journal
// (nil-safe, like every journal write).
func recordCampaignStart(jn *obs.Journal, cfg *Config) {
	jn.Record(obs.Event{
		Kind: obs.EventCampaignStart, VM: -1,
		Detail: fmt.Sprintf("%s seed=%d vms=%d budget=%d", cfg.Mode, cfg.Seed, cfg.VMs, cfg.Budget),
	})
}

func recordCampaignEnd(jn *obs.Journal, stats *Stats) {
	jn.Record(obs.Event{
		Kind: obs.EventCampaignEnd, VM: -1, Value: int64(stats.FinalEdges),
		Detail: fmt.Sprintf("execs=%d corpus=%d", stats.Executions, stats.CorpusSize),
	})
}

// Run executes the campaign until the budget is exhausted and returns the
// statistics: the epoch-barrier reconciler over one in-process shard that
// hosts every VM.
func (f *Fuzzer) Run() (*Stats, error) {
	ctl, err := f.newOnline()
	if err != nil {
		return nil, err
	}
	rec, err := newReconciler(f.cfg, f.corp, ctl, f.metrics, f.cacheSim)
	if err != nil {
		return nil, err
	}
	shard := newShard(f.cfg, f.corp, f.metrics, f.cacheSim != nil)
	if err := shard.Restore(rec.States); err != nil {
		return nil, err
	}
	return rec.Run(shard, nil)
}

// newOnline builds the continual-learning controller against the campaign
// server's currently served model (nil when the campaign's model is frozen).
func (f *Fuzzer) newOnline() (*online.Controller, error) {
	if f.cfg.Online == nil {
		return nil, nil
	}
	if f.cfg.Mode != ModeSnowplow {
		return nil, fmt.Errorf("fuzzer: online learning requires Snowplow mode")
	}
	sw, ok := f.cfg.Server.(serve.ModelSwapper)
	if !ok {
		return nil, fmt.Errorf("fuzzer: online learning requires a hot-swappable server (serve.ModelSwapper), got %T", f.cfg.Server)
	}
	ctl, err := online.New(online.Params{
		Config:  *f.cfg.Online,
		Kernel:  f.cfg.Kernel,
		An:      f.cfg.An,
		Seed:    f.cfg.Seed,
		Current: sw.Model(),
		Metrics: f.cfg.Metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("fuzzer: %w", err)
	}
	return ctl, nil
}

// cacheStats is a campaign's graph-cache hit/miss split: from the
// deterministic simulation when one ran, else mirroring the server's
// wall-clock counters (zero without a server).
func cacheStats(sim *qgraph.CacheSim, server serve.Inferrer) (hits, misses int64) {
	if sim != nil {
		return sim.Stats()
	}
	if server != nil {
		ss := server.Stats()
		return ss.CacheHits, ss.CacheMisses
	}
	return 0, 0
}

// step performs one iteration of the Figure 1 loop. The two modes differ
// only inside the ARGUMENT_MUTATION branch — type selection, instantiation,
// call insertion/removal and fresh generation are shared — exactly as in
// the paper's deployment, which swaps the localizer and nothing else.
func (w *worker) step() error {
	entry := w.view.Choose(w.r)
	if entry == nil || w.r.Chance(generateProb) {
		p := w.gen.Generate(w.r, 2+w.r.Intn(5))
		return w.execute(p, classGenerate)
	}

	t := w.mut.SelectType(w.r, entry.Prog)
	if t == mutation.ArgMutation && w.cfg.Mode == ModeSnowplow && !w.r.Chance(w.cfg.FallbackProb) {
		return w.guidedArgMutation(entry)
	}
	class := classOther
	if t == mutation.ArgMutation {
		class = classRandArg
	}
	rec := w.mut.MutateType(w.r, entry.Prog, t)
	return w.execute(rec.Prog, class)
}

// sanitizeSlots drops slot references outside the program's mutation
// surface. Predictions cross a serving boundary and may be corrupt or
// stale; they must never crash the mutator.
func (w *worker) sanitizeSlots(p *prog.Prog, slots []prog.GlobalSlot) []prog.GlobalSlot {
	valid := slots[:0]
	for _, gs := range slots {
		if gs.Call < 0 || gs.Call >= len(p.Calls) ||
			gs.Slot < 0 || gs.Slot >= len(p.Calls[gs.Call].Meta.Slots()) {
			w.cnt.PMMInvalidSlots++
			continue
		}
		valid = append(valid, gs)
	}
	return valid
}

// guidedArgMutation performs PMM-localized argument mutations on the entry.
// The first time an entry is picked its query is submitted asynchronously
// and the fuzzer falls back to random localization until the prediction
// arrives (hiding inference latency behind mutation work, §3.4). Each
// prediction is consumed exactly once — one burst of argument mutations
// proportional to the number of predicted arguments — and a fresh query is
// issued the next time the entry is picked, so guidance always reflects the
// current coverage frontier.
func (w *worker) guidedArgMutation(entry *corpus.Entry) error {
	if w.cfg.SyncInference {
		return w.syncGuidedArgMutation(entry)
	}
	st := w.predictionFor(entry)
	if st == nil || st.pred == nil {
		// Prediction not ready (or no fresh argument-gated frontier to ask
		// about): random-localizer mutation this round, hiding the
		// inference latency behind ordinary mutation work (§3.4).
		rec := w.mut.MutateType(w.r, entry.Prog, mutation.ArgMutation)
		return w.execute(rec.Prog, classRandArg)
	}
	slots := w.sanitizeSlots(entry.Prog, st.pred.Slots)
	st.pred = nil // consume: next pick re-queries with fresh targets
	if len(slots) == 0 {
		rec := w.mut.MutateType(w.r, entry.Prog, mutation.ArgMutation)
		return w.execute(rec.Prog, classRandArg)
	}
	return w.guidedBurst(entry, slots)
}

// guidedBurst performs the PMM-localized argument mutations for one
// prediction: mutationsPerPrediction instantiations per predicted slot
// (§3.4: more predicted arguments -> more mutations of this base), plus
// pairwise slot combinations that probe multi-constraint ladders a
// single-slot mutation cannot cross. Bursts only happen when a prediction
// has actually arrived — the fuzzer never waits for the model — so the
// guided share of the budget is bounded by the serving throughput, exactly
// as in the paper's deployment.
func (w *worker) guidedBurst(entry *corpus.Entry, slots []prog.GlobalSlot) error {
	if len(slots) > 8 {
		slots = slots[:8]
	}
	for _, slot := range slots {
		for j := 0; j < mutationsPerPrediction; j++ {
			if w.cost >= w.budget {
				return nil
			}
			rec := w.mut.MutateArgs(w.r, entry.Prog, []prog.GlobalSlot{slot})
			if err := w.execute(rec.Prog, classGuided); err != nil {
				return err
			}
		}
	}
	if len(slots) >= 2 {
		for j := 0; j < mutationsPerPrediction; j++ {
			if w.cost >= w.budget {
				return nil
			}
			a := slots[w.r.Intn(len(slots))]
			b := slots[w.r.Intn(len(slots))]
			if a == b {
				continue
			}
			rec := w.mut.MutateArgs(w.r, entry.Prog, []prog.GlobalSlot{a, b})
			if err := w.execute(rec.Prog, classGuided); err != nil {
				return err
			}
		}
	}
	return nil
}

// syncGuidedArgMutation is the ablated integration: block on inference for
// every guided round. The simulated budget is unaffected (inference is
// off-box), but wall-clock throughput collapses — the effect §5.5 measures.
func (w *worker) syncGuidedArgMutation(entry *corpus.Entry) error {
	var pred serve.Prediction
	if reply := w.submit(entry, w.queryTargets(entry)); reply != nil {
		if pred = <-reply; pred.Err != nil {
			w.cnt.PMMFailed++
		} else {
			w.cnt.PMMPredictions++
		}
	}
	if pred.Slots == nil {
		rec := w.mut.MutateType(w.r, entry.Prog, mutation.ArgMutation)
		return w.execute(rec.Prog, classRandArg)
	}
	slots := w.sanitizeSlots(entry.Prog, pred.Slots)
	if len(slots) == 0 {
		rec := w.mut.MutateType(w.r, entry.Prog, mutation.ArgMutation)
		return w.execute(rec.Prog, classRandArg)
	}
	return w.guidedBurst(entry, slots)
}

// predictionFor returns the entry's cached prediction state, submitting or
// refreshing the asynchronous query as needed. Replies become visible only
// when harvestPending collects them at the next epoch barrier, so
// prediction availability is a function of simulated time, not wall-clock
// arrival order.
func (w *worker) predictionFor(entry *corpus.Entry) *entryPrediction {
	st := w.preds[entry]
	if st == nil {
		st = &entryPrediction{}
		w.preds[entry] = st
		w.submitQuery(entry, st)
		return st
	}
	// Consumed (or never-answered) prediction with no query in flight:
	// resubmit against the current frontier.
	if st.pred == nil && st.reply == nil {
		w.submitQuery(entry, st)
	}
	return st
}

// harvestPending blocks for every outstanding prediction reply and makes
// the results available to the next epoch. A shard calls this at epoch
// start and at the final drain; every accepted query delivers exactly one
// reply on a buffered channel, so the drain always terminates. A terminal
// serving failure (retries exhausted, closed) gives no guidance; the random
// fallback covers the base.
func (w *worker) harvestPending() {
	w.cnt.PMMPredictions += int64(w.phantom)
	w.phantom = 0
	for _, st := range w.preds {
		if st.reply == nil {
			continue
		}
		pred := <-st.reply
		st.reply = nil
		if pred.Err != nil {
			w.cnt.PMMFailed++
		} else {
			st.pred = &pred
			w.cnt.PMMPredictions++
		}
	}
}

// submitQuery asks PMM which arguments of the base to mutate, targeting
// uncovered frontier blocks near the base's coverage.
func (w *worker) submitQuery(entry *corpus.Entry, st *entryPrediction) {
	targets := w.queryTargets(entry)
	if st.reply = w.submit(entry, targets); st.reply != nil {
		st.targets = targets
	}
}

// submit sends the entry's query for targets through serve's Submit under
// the VM's next query key, and counts it. It submits nothing for no
// targets, and counts a refusal (a closed server) in PMMShed; either way it
// returns nil and the random fallback covers the base.
func (w *worker) submit(entry *corpus.Entry, targets []kernel.BlockID) <-chan serve.Prediction {
	if len(targets) == 0 {
		return nil
	}
	reply, err := w.cfg.Server.Submit(serve.Query{
		Prog:    entry.Prog,
		Traces:  entry.Traces,
		Targets: targets,
	}, queryKey(w.cfg.Seed, w.id, w.cnt.PMMQueries, false))
	if err != nil {
		w.cnt.PMMShed++
		return nil
	}
	w.cnt.PMMQueries++
	if w.trackKeys {
		w.keyBuf = append(w.keyBuf, qgraph.HashQuery(entry.Prog, entry.Traces, targets))
	}
	return reply
}

// queryKey is the serving key of VM vm's query number n: a function of the
// campaign seed, the VM and the VM's PMMQueries count alone, so serving
// plans the same faults for the same query on every run, host and
// transport. Shard.Restore's resubmissions set restored, which draws their
// keys from a range no fresh query uses.
func queryKey(seed uint64, vm int, n int64, restored bool) uint64 {
	k := uint64(vm)<<40 | uint64(n)
	if restored {
		k |= 1 << 63
	}
	return seed*vmSeedStride ^ k
}

// queryTargets picks desired targets for a base: frontier blocks of its
// coverage that the whole campaign has not covered yet and that sit behind
// argument-dependent branches. State-gated branches (counters) cannot be
// flipped by argument mutation, so asking PMM about them only produces
// unusable localizations; the gating predicate's class is static CFG
// information the fuzzer already has.
func (w *worker) queryTargets(entry *corpus.Entry) []kernel.BlockID {
	alts := w.cfg.An.Frontier(entry.Blocks)
	var fresh []kernel.BlockID
	seen := map[kernel.BlockID]bool{}
	for _, alt := range alts {
		if seen[alt.Entry] || w.view.HasBlock(alt.Entry) {
			continue
		}
		switch w.cfg.Kernel.Block(alt.From).Pred.Kind {
		case kernel.PredCounterGT, kernel.PredCounterEQ:
			continue
		}
		seen[alt.Entry] = true
		fresh = append(fresh, alt.Entry)
	}
	if len(fresh) > maxQueryTargets {
		w.r.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
		fresh = fresh[:maxQueryTargets]
	}
	return fresh
}

// yieldClass attributes an execution to a work class for YieldStats.
type yieldClass int

const (
	classGenerate yieldClass = iota
	classGuided
	classRandArg
	classOther
)

func (w *worker) recordYield(class yieldClass, newEdges int) {
	y := &w.cnt.Yield
	switch class {
	case classGenerate:
		y.GenerateExecs++
		y.GenerateEdges += int64(newEdges)
	case classGuided:
		y.GuidedExecs++
		y.GuidedEdges += int64(newEdges)
	case classRandArg:
		y.RandArgExecs++
		y.RandArgEdges += int64(newEdges)
	default:
		y.OtherMutExecs++
		y.OtherMutEdges += int64(newEdges)
	}
}

// run executes p on the VM's machine, charging its simulated cost and
// counting the execution and its wall-clock latency.
func (w *worker) run(p *prog.Prog) (*exec.Result, error) {
	var t0 time.Time
	if w.m != nil {
		t0 = time.Now()
	}
	res, err := w.exe.Run(p)
	if err != nil {
		return nil, err
	}
	if w.m != nil {
		w.m.execLatency.Observe(time.Since(t0).Nanoseconds())
	}
	w.cnt.Executions++
	w.cost += int64(res.Cost)
	return res, nil
}

// execute runs a program, triages the result, and updates corpus and crash
// records.
func (w *worker) execute(p *prog.Prog, class yieldClass) error {
	res, err := w.run(p)
	if err != nil {
		return fmt.Errorf("fuzzer: %w", err)
	}
	if res.Crash != nil {
		if c := res.Crash; !w.crashSeen[c.Title] {
			w.crashSeen[c.Title] = true
			w.crashes = append(w.crashes, CrashState{
				Title: c.Title, Category: c.Category, Detector: c.Detector, KnownSince: c.KnownSince,
				Flaky: c.Flaky, ProgText: p.Serialize(), Cost: w.cost,
			})
			w.jevent(obs.EventCrash, 0, res.Crash.Title)
		}
		w.recordYield(class, 0)
		return nil
	}
	cover := trace.EdgesOfInto(w.scratchCover, res)
	blocks := *trace.BlockSetOfInto(&w.scratchBlocks, res)
	newEdges := w.view.Add(p, cover, blocks, res.CallTraces)
	if newEdges > 0 {
		w.jevent(obs.EventNewEdges, int64(newEdges), "")
	}
	w.recordYield(class, newEdges)
	return nil
}

// seed executes an initial program and retains it in corp unconditionally.
func (w *worker) seed(p *prog.Prog, corp *corpus.Corpus) error {
	res, err := w.run(p)
	if err != nil || res.Crash != nil {
		return err
	}
	cover := trace.EdgesOfInto(w.scratchCover, res)
	blocks := *trace.BlockSetOfInto(&w.scratchBlocks, res)
	corp.Seed(p, cover, blocks, res.CallTraces)
	return nil
}
