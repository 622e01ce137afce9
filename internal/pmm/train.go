package pmm

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/repro/snowplow/internal/dataset"
	"github.com/repro/snowplow/internal/nn"
	"github.com/repro/snowplow/internal/obs"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
)

// TrainConfig controls training.
type TrainConfig struct {
	LR        float64 // Adam learning rate
	Epochs    int
	PosWeight float64 // loss weight of MUTATE labels (positives are rare)
	ClipNorm  float64 // global gradient-norm clip
	Seed      uint64
	// Batch is the minibatch size: examples whose gradients are averaged
	// into one Adam step. 0 or 1 keeps the original per-example stepping.
	Batch int
	// Workers is the data-parallel width: examples of a minibatch are
	// forward/backward-ed by this many goroutines, each on a model replica
	// sharing the master weights, with per-example gradients reduced in
	// example order before the step. Checkpoints are byte-identical at any
	// worker count for a given seed. 0 or 1 trains single-threaded.
	// Workers also bounds the hyperparameter-search and validation-pass
	// concurrency.
	Workers int
	// Quiet suppresses per-epoch progress output.
	Quiet bool
	// Log receives progress lines when not Quiet (defaults to io.Discard).
	Log io.Writer
	// Pretrain runs masked-token pretraining of the assembly encoder on the
	// kernel's basic blocks before supervised training (the paper's BERT
	// pretraining step).
	Pretrain bool
	// Metrics, when non-nil, receives the train_* instruments (epoch
	// latency, throughput, gradient-reduce wait). Purely observational —
	// never part of training determinism.
	Metrics *obs.Registry
}

// DefaultTrainConfig returns the training settings used by the experiments.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{LR: 3e-3, Epochs: 8, PosWeight: 2, ClipNorm: 1, Seed: 1, Quiet: true}
}

func (tcfg TrainConfig) batch() int {
	if tcfg.Batch < 1 {
		return 1
	}
	return tcfg.Batch
}

func (tcfg TrainConfig) workers() int {
	if tcfg.Workers < 1 {
		return 1
	}
	return tcfg.Workers
}

// compiled is one training example compiled to model inputs.
type compiled struct {
	g       *qgraph.Graph
	targets []float64
	weights []float64
}

// compile builds graphs and label vectors for a dataset.
func compile(b *qgraph.Builder, ds *dataset.Dataset, posWeight float64) []compiled {
	out := make([]compiled, 0, ds.Len())
	for _, ex := range ds.Examples {
		g := b.Build(ex.Prog, ex.Traces, ex.Targets)
		label := map[prog.GlobalSlot]bool{}
		for _, s := range ex.Slots {
			label[s] = true
		}
		targets := make([]float64, len(g.Slots))
		weights := make([]float64, len(g.Slots))
		for i, s := range g.Slots {
			weights[i] = 1
			if label[s] {
				targets[i] = 1
				weights[i] = posWeight
			}
		}
		out = append(out, compiled{g: g, targets: targets, weights: weights})
	}
	return out
}

// Compiled is a dataset split compiled once into model inputs: query graphs
// plus per-slot label and weight vectors. Compiling dominates short
// training runs, so callers that train, validate and evaluate should build
// each split exactly once (CompileDataset) and pass the result to
// TrainOnCompiled / EvaluateCompiled / SearchHyperparamsCompiled instead of
// letting every stage recompile. A Compiled split is immutable and may be
// shared by concurrent trainers.
type Compiled struct {
	examples []compiled
}

// Len returns the number of compiled examples.
func (c *Compiled) Len() int { return len(c.examples) }

// CompileDataset compiles a dataset split against the builder once.
// posWeight is baked into the per-slot loss weights (use the training
// config's PosWeight for the train split and 1 for validation/eval splits).
func CompileDataset(b *qgraph.Builder, ds *dataset.Dataset, posWeight float64) *Compiled {
	return &Compiled{examples: compile(b, ds, posWeight)}
}

// TrainReport summarizes a training run.
type TrainReport struct {
	EpochLoss []float64
	ValF1     []float64 // mean F1 on the validation split after each epoch
	Threshold float64   // tuned decision threshold
}

// Train fits a fresh model on the train split, tracks validation F1, and
// tunes the decision threshold on the validation split. The query-graph
// builder must wrap the kernel the dataset was collected on.
func Train(b *qgraph.Builder, cfg Config, tcfg TrainConfig, train, val *dataset.Dataset) (*Model, TrainReport) {
	return TrainCompiled(b, cfg, tcfg, CompileDataset(b, train, tcfg.PosWeight), CompileDataset(b, val, 1))
}

// TrainCompiled is Train over pre-compiled splits.
func TrainCompiled(b *qgraph.Builder, cfg Config, tcfg TrainConfig, train, val *Compiled) (*Model, TrainReport) {
	r := rng.New(tcfg.Seed)
	m := NewModel(r, cfg, BuildVocab(b.K))
	report := TrainOnCompiled(m, b, tcfg, train, val)
	return m, report
}

// TrainOnCompiled fits an existing model in place over pre-compiled splits.
//
// With Batch=1 and Workers=1 (the defaults) the loop is the classic
// per-example SGD of the original trainer, bit for bit. With Batch=B and
// Workers=W, each minibatch's examples are forward/backward-ed by W workers
// — every worker holds a weight-aliased model replica and a pooled
// training arena (nn.TrainArena), and writes each example's gradient into
// a dedicated pooled slab — then the slabs are reduced into the master
// gradients in example order, averaged, clipped and stepped once. Because
// per-example gradients are computed independently and summed in a fixed
// order, the float arithmetic never depends on W: TrainWorkers=1 and =N
// produce byte-identical checkpoints for a given seed.
func TrainOnCompiled(m *Model, b *qgraph.Builder, tcfg TrainConfig, train, val *Compiled) TrainReport {
	log := tcfg.Log
	if log == nil {
		log = io.Discard
	}
	if tcfg.Pretrain {
		pcfg := DefaultPretrainConfig()
		pcfg.Seed = tcfg.Seed
		report := Pretrain(m, b.K, pcfg)
		if !tcfg.Quiet {
			fmt.Fprintf(log, "pretraining: loss %v, masked accuracy %.3f\n", report.EpochLoss, report.Accuracy)
		}
	}
	ins := newTrainInstruments(tcfg.Metrics)
	r := rng.New(tcfg.Seed + 0x7ead)
	examples := train.examples
	valExamples := val.examples
	opt := nn.NewAdam(m.ParamList(), tcfg.LR)
	t := newMiniTrainer(m, tcfg, ins)
	shadow := newEvalShadow(m)
	batch := tcfg.batch()
	var report TrainReport
	// The validation split's probabilities from the latest epoch: scored
	// for that epoch's F1, then swept by tuneThreshold without another
	// forward, since the weights no longer change.
	var valProbs [][]float64
	for epoch := 0; epoch < tcfg.Epochs; epoch++ {
		epochStart := time.Now()
		perm := r.Perm(len(examples))
		// Live examples in permutation order; examples without argument
		// vertices have nothing to label and are skipped, as before.
		t.live = t.live[:0]
		for _, i := range perm {
			if len(examples[i].g.ArgVertices) > 0 {
				t.live = append(t.live, examples[i])
			}
		}
		var total float64
		for start := 0; start < len(t.live); start += batch {
			end := start + batch
			if end > len(t.live) {
				end = len(t.live)
			}
			for _, loss := range t.step(opt, tcfg, t.live[start:end]) {
				total += loss
			}
		}
		elapsed := time.Since(epochStart)
		ins.epochs.Inc()
		ins.examples.Add(int64(len(t.live)))
		ins.epochLatency.Observe(elapsed.Nanoseconds())
		if s := elapsed.Seconds(); s > 0 {
			ins.examplesPerSec.Set(int64(float64(len(t.live)) / s))
		}
		avg := 0.0
		if len(examples) > 0 {
			avg = total / float64(len(examples))
		}
		report.EpochLoss = append(report.EpochLoss, avg)
		valProbs = validate(shadow, valExamples, tcfg.workers())
		valF1 := metricsAt(valExamples, valProbs, shadow.Cfg.Threshold).F1
		report.ValF1 = append(report.ValF1, valF1)
		if !tcfg.Quiet {
			fmt.Fprintf(log, "epoch %d: loss %.4f, val F1 %.3f\n", epoch, avg, valF1)
		}
	}
	if valProbs == nil {
		valProbs = validate(shadow, valExamples, tcfg.workers())
	}
	report.Threshold = tuneThreshold(valExamples, valProbs)
	m.Cfg.Threshold = report.Threshold
	return report
}

// validate forwards the validation split on the eval shadow at the master's
// current weights. The shadow's snapshot is retaken first: the optimizer
// steps since the last pass rewrote the weights under it.
func validate(shadow *Model, examples []compiled, workers int) [][]float64 {
	shadow.snapshot()
	return predictProbs(shadow, examples, workers)
}

// trainInstruments bundles the optional train_* metrics. Every field is
// nil (and every update a no-op) when no registry is attached.
type trainInstruments struct {
	epochs         *obs.Counter
	minibatches    *obs.Counter
	examples       *obs.Counter
	epochLatency   *obs.Histogram
	reduceWait     *obs.Histogram
	examplesPerSec *obs.Gauge
}

func newTrainInstruments(reg *obs.Registry) trainInstruments {
	return trainInstruments{
		epochs:         reg.Counter("train_epochs_total", "epochs", "supervised training epochs completed"),
		minibatches:    reg.Counter("train_minibatches_total", "steps", "optimizer steps (one per minibatch)"),
		examples:       reg.Counter("train_examples_total", "examples", "training examples forward/backward processed"),
		epochLatency:   reg.Histogram("train_epoch_latency_ns", "ns", "wall-clock duration of one supervised epoch, excluding validation", obs.LatencyBucketsNs()),
		reduceWait:     reg.Histogram("train_grad_reduce_wait_ns", "ns", "wall-clock wait for the slowest minibatch worker before gradient reduction", obs.LatencyBucketsNs()),
		examplesPerSec: reg.Gauge("train_examples_per_sec", "examples/s", "supervised training throughput of the last epoch"),
	}
}

// trainWorker is one data-parallel lane: a model replica sharing the master
// weights (private gradients), plus a pooled autodiff arena so its
// forward/backward passes stop allocating. Every arena reads the trainer's
// one set of transposed weight copies.
type trainWorker struct {
	rep   *Model
	reps  []*nn.Tensor // replica ParamList, name-order aligned with master
	arena *nn.TrainArena
}

// bind points every replica parameter's gradient at its segment of the
// per-example slab, so one backward pass writes the whole example gradient
// into contiguous pooled memory.
func (tw *trainWorker) bind(slab []float64, sizes []int) {
	off := 0
	for pi, p := range tw.reps {
		n := sizes[pi]
		p.Grad = slab[off : off+n : off+n]
		off += n
	}
}

// miniTrainer runs deterministic data-parallel minibatch steps.
type miniTrainer struct {
	params  []*nn.Tensor // master parameters, sorted-name order
	sizes   []int
	total   int
	workers []*trainWorker
	slabs   *nn.Pool // per-example gradient slabs, recycled across steps
	// weights holds every Linear weight transposed, rebuilt after each
	// optimizer step and read by all workers' arenas during the next.
	weights *nn.WeightCopies
	ins     trainInstruments

	live    []compiled  // scratch: this epoch's live examples in perm order
	slabBuf [][]float64 // scratch: per-example slabs of the current step
	lossBuf []float64   // scratch: per-example losses of the current step
}

func newMiniTrainer(m *Model, tcfg TrainConfig, ins trainInstruments) *miniTrainer {
	t := &miniTrainer{params: m.ParamList(), ins: ins}
	for _, p := range t.params {
		t.sizes = append(t.sizes, p.Size())
		t.total += p.Size()
	}
	t.slabs = nn.NewPoolCap(tcfg.batch() + tcfg.workers())
	var ws []*nn.Tensor
	m.linears(func(l *nn.Linear) { ws = append(ws, l.W) })
	t.weights = nn.NewWeightCopies(ws)
	for w := 0; w < tcfg.workers(); w++ {
		rep := newAliasedModel(m)
		arena := nn.NewTrainArena()
		arena.UseWeights(t.weights)
		t.workers = append(t.workers, &trainWorker{rep: rep, reps: rep.ParamList(), arena: arena})
	}
	return t
}

// step runs one minibatch and returns the per-example losses in example
// order. Workers pick examples by stride, compute each gradient into a
// zeroed pooled slab, and the main goroutine reduces the slabs into the
// zeroed master gradients in example order — a worker-count-independent
// summation tree — before one clip + Adam step, after which the transposed
// weight copies are rebuilt for the next step.
func (t *miniTrainer) step(opt *nn.Adam, tcfg TrainConfig, batch []compiled) []float64 {
	W := len(t.workers)
	if W > len(batch) {
		W = len(batch)
	}
	if cap(t.slabBuf) < len(batch) {
		t.slabBuf = make([][]float64, len(batch))
		t.lossBuf = make([]float64, len(batch))
	}
	slabs, losses := t.slabBuf[:len(batch)], t.lossBuf[:len(batch)]
	var wg sync.WaitGroup
	for w := 0; w < W; w++ {
		wg.Add(1)
		go func(tw *trainWorker, w int) {
			defer wg.Done()
			for i := w; i < len(batch); i += W {
				slab := t.slabs.GetSlice(t.total)
				slabs[i] = slab
				tw.bind(slab, t.sizes)
				ex := batch[i]
				logits := tw.rep.forwardMany(tw.arena, []*qgraph.Graph{ex.g})[0]
				loss := tw.arena.BCEWithLogits(logits, ex.targets, ex.weights)
				loss.Backward()
				losses[i] = loss.Item()
				tw.arena.Close()
			}
		}(t.workers[w], w)
	}
	waitStart := time.Now()
	wg.Wait()
	t.ins.reduceWait.Observe(time.Since(waitStart).Nanoseconds())

	opt.ZeroGrad()
	for i := range batch {
		slab := slabs[i]
		off := 0
		for pi, p := range t.params {
			g := p.Grad
			src := slab[off : off+t.sizes[pi]]
			for j := range g {
				g[j] += src[j]
			}
			off += t.sizes[pi]
		}
		t.slabs.PutSlice(slab)
		slabs[i] = nil
	}
	if len(batch) > 1 {
		inv := 1 / float64(len(batch))
		for _, p := range t.params {
			for j := range p.Grad {
				p.Grad[j] *= inv
			}
		}
	}
	nn.ClipGradNorm(t.params, tcfg.ClipNorm)
	opt.Step()
	t.weights.Refresh()
	t.ins.minibatches.Inc()
	return losses
}

// Metrics are the §5.2 selector-performance measures, averaged per example.
type Metrics struct {
	F1, Precision, Recall, Jaccard float64
	N                              int
}

// String renders the metrics like Table 1.
func (mt Metrics) String() string {
	return fmt.Sprintf("F1 %.1f%%  Precision %.1f%%  Recall %.1f%%  Jaccard %.1f%%",
		mt.F1*100, mt.Precision*100, mt.Recall*100, mt.Jaccard*100)
}

// Evaluate computes the metrics of the model on a dataset. Callers that
// evaluate a split more than once should compile it once with
// CompileDataset and use EvaluateCompiled.
func Evaluate(m *Model, b *qgraph.Builder, ds *dataset.Dataset) Metrics {
	return EvaluateCompiled(m, CompileDataset(b, ds, 1))
}

// EvaluateCompiled computes the metrics of the model on a pre-compiled
// split. Examples are scored by parallel workers through the fused
// inference path (on a frozen weight-aliased shadow if the model is still
// in training mode) and the per-example measures fold in example order, so
// the result is bit-identical to a sequential evaluation at any
// parallelism.
func EvaluateCompiled(m *Model, c *Compiled) Metrics {
	frozen := m
	if !m.frozen() {
		frozen = newEvalShadow(m)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	return evaluateCompiledWorkers(frozen, c.examples, workers)
}

// evaluateCompiledWorkers scores each example on the frozen model at its
// threshold with the given parallelism.
func evaluateCompiledWorkers(frozen *Model, examples []compiled, workers int) Metrics {
	return metricsAt(examples, predictProbs(frozen, examples, workers), frozen.Cfg.Threshold)
}

// predictProbs runs the frozen model's forward over every example with the
// given parallelism and returns each example's per-argument probabilities,
// positionally (nil for an example without argument vertices).
func predictProbs(frozen *Model, examples []compiled, workers int) [][]float64 {
	if workers > len(examples) {
		workers = len(examples)
	}
	if workers < 1 {
		workers = 1
	}
	probs := make([][]float64, len(examples))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(examples); i += workers {
				_, probs[i] = frozen.Predict(examples[i].g)
			}
		}(w)
	}
	wg.Wait()
	return probs
}

// metricsAt scores stored probabilities at a decision threshold: each
// example's prediction is the slot set Predict would return at that
// threshold (pickArgs), and the per-example measures fold in example order,
// so the result is bit-identical to predicting afresh at any parallelism.
func metricsAt(examples []compiled, probs [][]float64, threshold float64) Metrics {
	var mt Metrics
	for i, ex := range examples {
		predSet := map[prog.GlobalSlot]bool{}
		if len(probs[i]) > 0 {
			for _, a := range pickArgs(probs[i], threshold) {
				predSet[ex.g.Slots[a]] = true
			}
		}
		mt.accumulate(predSet, labelSet(ex))
	}
	mt.finish()
	return mt
}

// EvaluateRandomK computes the metrics of the Rand.K baseline (Table 1):
// select K uniformly random distinct slots per example.
func EvaluateRandomK(r *rng.Rand, b *qgraph.Builder, ds *dataset.Dataset, k int) Metrics {
	var mt Metrics
	for _, ex := range ds.Examples {
		all := ex.Prog.AllSlots()
		predSet := map[prog.GlobalSlot]bool{}
		if len(all) > 0 {
			perm := r.Perm(len(all))
			for i := 0; i < k && i < len(all); i++ {
				predSet[all[perm[i]]] = true
			}
		}
		label := map[prog.GlobalSlot]bool{}
		for _, s := range ex.Slots {
			label[s] = true
		}
		mt.accumulate(predSet, label)
	}
	mt.finish()
	return mt
}

func labelSet(ex compiled) map[prog.GlobalSlot]bool {
	label := map[prog.GlobalSlot]bool{}
	for i, t := range ex.targets {
		if t == 1 {
			label[ex.g.Slots[i]] = true
		}
	}
	return label
}

func (mt *Metrics) accumulate(pred, label map[prog.GlobalSlot]bool) {
	inter := 0
	for s := range pred {
		if label[s] {
			inter++
		}
	}
	union := len(pred) + len(label) - inter
	var p, rc, f1, j float64
	if len(pred) > 0 {
		p = float64(inter) / float64(len(pred))
	}
	if len(label) > 0 {
		rc = float64(inter) / float64(len(label))
	}
	if p+rc > 0 {
		f1 = 2 * p * rc / (p + rc)
	}
	if union > 0 {
		j = float64(inter) / float64(union)
	}
	mt.Precision += p
	mt.Recall += rc
	mt.F1 += f1
	mt.Jaccard += j
	mt.N++
}

func (mt *Metrics) finish() {
	if mt.N == 0 {
		return
	}
	n := float64(mt.N)
	mt.Precision /= n
	mt.Recall /= n
	mt.F1 /= n
	mt.Jaccard /= n
}

// thresholdGrid is the decision thresholds tuneThreshold sweeps.
var thresholdGrid = []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8}

// tuneThreshold sweeps decision thresholds over the validation split's
// stored probabilities and returns the best mean-F1 threshold, the lowest
// on a tie.
func tuneThreshold(valExamples []compiled, probs [][]float64) float64 {
	best, bestF1 := 0.0, -1.0
	for _, th := range thresholdGrid {
		f1 := metricsAt(valExamples, probs, th).F1
		if f1 > bestF1 {
			best, bestF1 = th, f1
		}
	}
	return best
}

// HyperparamResult records one point of the §5.1 hyperparameter search.
type HyperparamResult struct {
	Cfg   Config
	Train TrainConfig
	ValF1 float64
}

// SearchHyperparams trains one model per candidate configuration and
// returns the results sorted best-first, mirroring (at laptop scale) the
// paper's 112-configuration sweep.
func SearchHyperparams(b *qgraph.Builder, candidates []Config, tcfg TrainConfig, train, val *dataset.Dataset) []HyperparamResult {
	return SearchHyperparamsCompiled(b, candidates, tcfg, CompileDataset(b, train, tcfg.PosWeight), CompileDataset(b, val, 1))
}

// SearchHyperparamsCompiled is SearchHyperparams over splits compiled once
// and shared by every candidate. Up to tcfg.Workers candidates train
// concurrently (each single-worker — candidates are embarrassingly
// parallel, so cross-candidate parallelism wins). Candidate i always trains
// with seed tcfg.Seed+i, so results are independent of the concurrency.
func SearchHyperparamsCompiled(b *qgraph.Builder, candidates []Config, tcfg TrainConfig, train, val *Compiled) []HyperparamResult {
	results := make([]HyperparamResult, len(candidates))
	sem := make(chan struct{}, tcfg.workers())
	var wg sync.WaitGroup
	for i, cfg := range candidates {
		wg.Add(1)
		go func(i int, cfg Config) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			tc := tcfg
			tc.Seed = tcfg.Seed + uint64(i)
			tc.Workers = 1
			m, _ := TrainCompiled(b, cfg, tc, train, val)
			f1 := EvaluateCompiled(m, val).F1
			results[i] = HyperparamResult{Cfg: cfg, Train: tc, ValF1: f1}
		}(i, cfg)
	}
	wg.Wait()
	sort.SliceStable(results, func(i, j int) bool { return results[i].ValF1 > results[j].ValF1 })
	return results
}
