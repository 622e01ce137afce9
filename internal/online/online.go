// Package online implements the continual-learning loop: a background
// retrainer that harvests the campaign's own corpus, retrains the PMM with
// the data-parallel trainer, validates the candidate against the currently
// served checkpoint, and hands the campaign engines versioned model swaps to
// hot-apply at epoch barriers.
//
// Determinism contract. Everything the swapped model depends on is a pure
// function of barrier state: retrains kick off at fixed barrier epochs
// (every Config.Every-th barrier) from the corpus in publish order at that
// barrier, with an RNG seed derived from (campaign seed, checkpoint
// version); training itself is byte-identical at any worker count (the PR-5
// trainer guarantee); and the resulting swap applies exactly Config.Lag
// barriers later. Training runs concurrently with fuzzing in wall-clock
// time — VMs are never paused — but if it has not finished by the apply
// barrier, the engine blocks in wall clock only, exactly like a barrier
// wait. A campaign with online learning therefore replays bit-identically
// per seed at any serving/training/cluster worker count, and a single-host
// fleet matches a distributed cluster swap for swap.
//
// Validation gate. A candidate is swapped in only if its validation F1 on
// the fresh harvest's held-out split is at least the incumbent model's F1 on
// the same split; otherwise the version is journaled as skipped and the
// incumbent keeps serving. Both evaluations are deterministic, so the gate
// decision is too.
package online

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"github.com/repro/snowplow/internal/cfa"
	"github.com/repro/snowplow/internal/dataset"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/nn"
	"github.com/repro/snowplow/internal/obs"
	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
)

// Config holds the campaign-semantic online-learning parameters: every
// field here changes what a campaign computes, so all of them travel in the
// cluster CampaignSpec and are pinned by checkpoints. The one wall-clock
// knob, the training/harvest width, is the process's nn.Workers(): it
// never changes results.
type Config struct {
	// Every is the retrain cadence in epoch barriers: a retrain kicks off
	// at every barrier whose epoch is a positive multiple of Every (unless
	// one is already in flight). Default 8.
	Every int64
	// Lag is how many barriers after its kickoff a retrain's swap applies.
	// The gap is the wall-clock window training gets to overlap with
	// fuzzing; if training is still running at the apply barrier, the
	// engine blocks (wall clock only). Default 2.
	Lag int64
	// MinCorpus is the minimum corpus size (entries) for a kickoff; smaller
	// corpora make degenerate harvests. Default 8.
	MinCorpus int
	// MutationsPerBase is the harvest width per corpus entry (see
	// dataset.Collector). Default 24.
	MutationsPerBase int
	// TrainEpochs is the per-retrain epoch budget. Default 4.
	TrainEpochs int
	// TrainBatch is the retrain minibatch size. Default 8.
	TrainBatch int
}

// Normalized resolves zero fields to their defaults.
func (c Config) Normalized() Config {
	if c.Every <= 0 {
		c.Every = 8
	}
	if c.Lag <= 0 {
		c.Lag = 2
	}
	if c.MinCorpus <= 0 {
		c.MinCorpus = 8
	}
	if c.MutationsPerBase <= 0 {
		c.MutationsPerBase = 24
	}
	if c.TrainEpochs <= 0 {
		c.TrainEpochs = 4
	}
	if c.TrainBatch <= 0 {
		c.TrainBatch = 8
	}
	return c
}

// Params wires a Controller into one campaign engine (the single-host
// parallel loop or the cluster coordinator).
type Params struct {
	// Config is the campaign-semantic schedule; zero fields take defaults.
	Config Config
	// Kernel and An are the campaign's kernel and its control-flow
	// analysis; the harvest executes against them.
	Kernel *kernel.Kernel
	An     *cfa.Analysis
	// Seed is the campaign seed; retrain RNG streams derive from it and the
	// checkpoint version, never from wall clock.
	Seed uint64
	// Current is the model serving at version 0 (the gate incumbent). Its
	// quantization state decides the canonical serving form of every
	// swapped checkpoint: quantized campaigns re-encode candidates with
	// SaveQuantized so cluster workers and single-host servers serve
	// byte-identical weights.
	Current *pmm.Model
	// Metrics receives the online_* instruments when non-nil.
	Metrics *obs.Registry
	// Logf receives progress lines when non-nil.
	Logf func(format string, args ...interface{})
}

// Swap is one versioned SPMV checkpoint-generation record: the outcome of a
// retrain, ready to hot-apply at its barrier. Everything except Elapsed is
// deterministic per (campaign seed, version).
type Swap struct {
	// Version is the checkpoint generation (1, 2, …; 0 is the initial
	// model).
	Version int64
	// Kickoff is the barrier epoch the retrain started at; the swap applies
	// at Kickoff+Lag.
	Kickoff int64
	// Bases and Examples size the harvest: corpus entries snapshotted and
	// labeled examples collected.
	Bases    int
	Examples int
	// NewF1 and OldF1 are the candidate's and the incumbent's validation F1
	// on the harvest's held-out split — the gate inputs.
	NewF1, OldF1 float64
	// Accepted reports the gate decision; Reason explains a skip.
	Accepted bool
	Reason   string
	// Bytes is the canonical serving-form checkpoint (SaveQuantized when
	// the campaign serves quantized weights, Save otherwise); nil when
	// skipped. Digest is the first 16 hex chars of its SHA-256 — the value
	// journaled in the SPMV record.
	Bytes  []byte
	Digest string
	// Model is Bytes loaded back: the instance the in-process transport
	// hands to serve.Server.SwapModel. Cluster workers load their own copy
	// from the pushed Bytes instead.
	Model *pmm.Model
	// Elapsed is the retrain's wall-clock time (observability only).
	Elapsed time.Duration
}

// Detail renders the swap's canonical journal payload. Single-host and
// cluster engines must journal byte-identical SPMV records, so the string is
// built here, once.
func (sw *Swap) Detail() string {
	if !sw.Accepted {
		return fmt.Sprintf("SPMV f1=%.4f base=%.4f skipped", sw.NewF1, sw.OldF1)
	}
	return fmt.Sprintf("SPMV digest=%s f1=%.4f applied", sw.Digest, sw.NewF1)
}

// KickoffDetail renders the canonical journal payload of a retrain-kickoff
// event over a corpus snapshot of the given size.
func KickoffDetail(bases int) string { return fmt.Sprintf("SPMV bases=%d", bases) }

// pendingTrain is one in-flight retrain. done is closed by the background
// goroutine after swap is populated.
type pendingTrain struct {
	version int64
	kickoff int64
	bases   int
	done    chan struct{}
	swap    *Swap
}

// instruments bundles the online_* observability handles the controller
// feeds (nil-safe). The retrain and swap counts are Stats, which the
// campaign's reconciler publishes at barriers.
type instruments struct {
	examples *obs.Counter
	trainNs  *obs.Counter
	version  *obs.Gauge
}

func newInstruments(reg *obs.Registry) instruments {
	if reg == nil {
		return instruments{}
	}
	return instruments{
		examples: reg.Counter("online_train_examples_total", "examples", "harvested training examples across retrains"),
		trainNs:  reg.Counter("online_train_wall_ns_total", "ns", "wall-clock time spent in background retrains"),
		version:  reg.Gauge("online_model_version", "version", "current hot-swapped checkpoint generation (0 = initial model)"),
	}
}

// Controller owns one campaign's continual-learning schedule. It is driven
// from a single reconciler goroutine (the parallel loop's barrier or the
// cluster coordinator's merge) and is not safe for concurrent driving; only
// the background retrain goroutine runs concurrently with the driver.
type Controller struct {
	cfg     Config
	p       Params
	quant   bool
	version int64 // last version handed out (kicked off)
	applied int64 // last version swapped in (or skipped) at a barrier
	cur     *pmm.Model
	pending *pendingTrain
	ins     instruments

	retrains, swaps, skips int64
}

// New builds a controller for one campaign. Params.Kernel, An and Current
// are required.
func New(p Params) (*Controller, error) {
	if p.Kernel == nil || p.An == nil {
		return nil, fmt.Errorf("online: controller requires a kernel and its analysis")
	}
	if p.Current == nil {
		return nil, fmt.Errorf("online: controller requires the initial model")
	}
	c := &Controller{
		cfg:   p.Config.Normalized(),
		p:     p,
		quant: p.Current.Quantized(),
		cur:   p.Current,
		ins:   newInstruments(p.Metrics),
	}
	return c, nil
}

// Config returns the normalized schedule the controller runs.
func (c *Controller) Config() Config { return c.cfg }

// Version returns the last barrier-resolved checkpoint generation (applied
// or skipped).
func (c *Controller) Version() int64 { return c.applied }

// Stats reports the controller's lifetime counters: retrains kicked off,
// swaps applied, candidates skipped by the gate.
func (c *Controller) Stats() (retrains, swaps, skips int64) {
	return c.retrains, c.swaps, c.skips
}

// SetApplied fast-forwards the version bookkeeping on checkpoint resume:
// the restored campaign has already resolved generation v at a barrier, so
// the next kickoff hands out v+1 exactly as the original campaign would.
func (c *Controller) SetApplied(v int64) {
	c.version, c.applied = v, v
	c.ins.version.Set(v)
}

// RestoreCounts restores the lifetime counters from a checkpoint, so a
// resumed campaign's end-of-run stats match an uninterrupted run's.
func (c *Controller) RestoreCounts(retrains, swaps, skips int64) {
	c.retrains, c.swaps, c.skips = retrains, swaps, skips
}

// ShouldKickoff reports whether barrier epoch is a retrain kickoff point:
// a positive multiple of Every with no retrain in flight and a corpus big
// enough to harvest. Purely a function of barrier state.
func (c *Controller) ShouldKickoff(epoch int64, corpusLen int) bool {
	return epoch > 0 && epoch%c.cfg.Every == 0 && c.pending == nil && corpusLen >= c.cfg.MinCorpus
}

// Kickoff starts a background retrain from the corpus snapshot at this
// barrier (entries in publish order) and returns the version it will
// produce. The caller must journal the kickoff (KickoffDetail) at this
// barrier so replays agree on the schedule.
func (c *Controller) Kickoff(epoch int64, bases []*prog.Prog) int64 {
	c.version++
	pt := &pendingTrain{version: c.version, kickoff: epoch, bases: len(bases), done: make(chan struct{})}
	c.pending = pt
	c.retrains++
	cur := c.cur
	go func() {
		defer close(pt.done)
		pt.swap = c.retrain(pt.version, epoch, cur, bases)
	}()
	return pt.version
}

// ResumePending restarts a retrain that a checkpoint recorded as in flight:
// the snapshot is the first `bases` entries of the restored corpus, exactly
// the publish-order prefix the original kickoff saw. The retrain counter is
// not bumped — the kickoff was already counted at its original barrier
// (RestoreCounts carries it).
func (c *Controller) ResumePending(version, kickoff int64, bases []*prog.Prog) {
	c.version = version
	pt := &pendingTrain{version: version, kickoff: kickoff, bases: len(bases), done: make(chan struct{})}
	c.pending = pt
	cur := c.cur
	go func() {
		defer close(pt.done)
		pt.swap = c.retrain(version, kickoff, cur, bases)
	}()
}

// Pending describes the in-flight retrain (version, kickoff epoch, snapshot
// size) for checkpointing, or ok=false when none is in flight. The snapshot
// size is the corpus publish-order prefix length the kickoff saw, which is
// all a resumed campaign needs to reconstruct the identical harvest.
func (c *Controller) Pending() (version, kickoff int64, bases int, ok bool) {
	if c.pending == nil {
		return 0, 0, 0, false
	}
	return c.pending.version, c.pending.kickoff, c.pending.bases, true
}

// SwapDue returns the swap scheduled to apply at this barrier, blocking (in
// wall clock only) until its training finishes, or nil when no swap is due.
// After SwapDue returns a swap, the controller's incumbent advances to it
// (when accepted) and the pending slot clears.
func (c *Controller) SwapDue(epoch int64) *Swap {
	pt := c.pending
	if pt == nil || epoch < pt.kickoff+c.cfg.Lag {
		return nil
	}
	<-pt.done
	c.pending = nil
	sw := pt.swap
	c.applied = sw.Version
	if sw.Accepted {
		c.cur = sw.Model
		c.swaps++
		c.ins.version.Set(sw.Version)
	} else {
		c.skips++
	}
	return sw
}

// Wait blocks until any in-flight retrain finishes (campaign teardown).
// The result, if any, stays pending for a subsequent SwapDue; Wait never
// applies it.
func (c *Controller) Wait() {
	if c.pending != nil {
		<-c.pending.done
	}
}

// trainSeed derives the retrain RNG stream for a checkpoint version from
// the campaign seed — never from wall clock.
func trainSeed(campaign uint64, version int64) uint64 {
	return campaign ^ uint64(version)*0x9e3779b97f4a7c15 ^ 0x0b57ac1e
}

// retrain is the background body: harvest → split → train → validate →
// encode, nn.Workers() wide. Deterministic per (seed, version, bases);
// only Elapsed carries wall clock.
func (c *Controller) retrain(version, kickoff int64, cur *pmm.Model, bases []*prog.Prog) *Swap {
	start := time.Now()
	sw := &Swap{Version: version, Kickoff: kickoff, Bases: len(bases)}
	defer func() {
		sw.Elapsed = time.Since(start)
		c.ins.trainNs.Add(sw.Elapsed.Nanoseconds())
	}()

	coll := dataset.NewCollector(c.p.Kernel, c.p.An)
	coll.MutationsPerBase = c.cfg.MutationsPerBase
	coll.Workers = nn.Workers()
	coll.Metrics = c.p.Metrics
	ds, _ := coll.Collect(rng.New(trainSeed(c.p.Seed, version)), bases)
	sw.Examples = ds.Len()
	train, val, _ := ds.Split(0.75, 0.25)
	if train.Len() == 0 || val.Len() == 0 {
		sw.Reason = "harvest too small"
		c.logf("online: v%d skipped: %s (%d examples)", version, sw.Reason, ds.Len())
		return sw
	}

	b := qgraph.NewBuilder(c.p.Kernel, c.p.An)
	tcfg := pmm.DefaultTrainConfig()
	tcfg.Epochs = c.cfg.TrainEpochs
	tcfg.Batch = c.cfg.TrainBatch
	tcfg.Workers = nn.Workers()
	tcfg.Seed = trainSeed(c.p.Seed, version)
	tcfg.Metrics = c.p.Metrics
	trainC := pmm.CompileDataset(b, train, tcfg.PosWeight)
	valC := pmm.CompileDataset(b, val, 1)
	m, report := pmm.TrainCompiled(b, cur.Cfg, tcfg, trainC, valC)
	if n := len(report.ValF1); n > 0 {
		sw.NewF1 = report.ValF1[n-1]
	}
	sw.OldF1 = pmm.EvaluateCompiled(cur, valC).F1
	c.ins.examples.Add(int64(ds.Len()))

	if sw.NewF1 < sw.OldF1 {
		sw.Reason = "validation regression"
		c.logf("online: v%d skipped: F1 %.4f < incumbent %.4f", version, sw.NewF1, sw.OldF1)
		return sw
	}

	var buf bytes.Buffer
	var err error
	if c.quant {
		m.Freeze()
		if qerr := m.Quantize(); qerr != nil {
			sw.Reason = "quantize: " + qerr.Error()
			return sw
		}
		err = m.SaveQuantized(&buf)
	} else {
		err = m.Save(&buf)
	}
	if err != nil {
		sw.Reason = "encode: " + err.Error()
		return sw
	}
	sw.Bytes = buf.Bytes()
	sum := sha256.Sum256(sw.Bytes)
	sw.Digest = hex.EncodeToString(sum[:8])
	sw.Model, err = pmm.Load(bytes.NewReader(sw.Bytes))
	if err != nil {
		sw.Bytes, sw.Digest = nil, ""
		sw.Reason = "reload: " + err.Error()
		return sw
	}
	sw.Accepted = true
	c.logf("online: v%d trained on %d examples from %d bases: F1 %.4f (incumbent %.4f), digest %s, %v",
		version, sw.Examples, sw.Bases, sw.NewF1, sw.OldF1, sw.Digest, time.Since(start).Round(time.Millisecond))
	return sw
}

func (c *Controller) logf(format string, args ...interface{}) {
	if c.p.Logf != nil {
		c.p.Logf(format, args...)
	}
}
