// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the synthetic-kernel substrate: §5.1 dataset statistics,
// Table 1 selector accuracy, Figure 6 coverage curves, Table 2/3/4 crash
// campaigns and triage, Table 5 directed fuzzing, §5.5 performance
// characteristics, and the DESIGN.md ablations.
//
// Absolute numbers differ from the paper (the substrate is a simulator, not
// a 96-vCPU QEMU fleet); each experiment reports the paper's number next to
// the measured one so the comparison of *shape* — who wins and by roughly
// what factor — is explicit. Experiments share one Harness so the model is
// trained once per process.
package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/repro/snowplow/internal/cfa"
	"github.com/repro/snowplow/internal/dataset"
	"github.com/repro/snowplow/internal/faultinject"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/serve"
)

// Options scales the experiments. Zero values take the Quick defaults.
type Options struct {
	// Seed makes the whole experiment suite reproducible.
	Seed uint64
	// Bases and MutationsPerBase size the §3.1 dataset harvest.
	Bases            int
	MutationsPerBase int
	// TrainEpochs controls PMM training.
	TrainEpochs int
	// FuzzBudget is the simulated "24-hour" budget of Figure 6.
	FuzzBudget int64
	// LongBudget is the simulated "7-day" budget of Table 2.
	LongBudget int64
	// DirectedBudget is the per-target budget of Table 5.
	DirectedBudget int64
	// Repeats is the number of repeated runs for banded results (Figure 6
	// uses 5 in the paper; Table 5 uses 5; Table 2 uses 2).
	Repeats int
	// Workers sizes the inference pool.
	Workers int
	// TrainWorkers is the data-parallel width of PMM training (see
	// pmm.TrainConfig.Workers); 0 or 1 trains single-threaded. Checkpoints
	// are byte-identical at any width for a given seed.
	TrainWorkers int
	// TrainBatch is the training minibatch size (see pmm.TrainConfig.Batch);
	// 0 or 1 keeps the per-example stepping.
	TrainBatch int
	// CollectWorkers is the harvest shard width of dataset collection (see
	// dataset.Collector.Workers); the harvested dataset is identical at any
	// width. 0 or 1 harvests single-threaded.
	CollectWorkers int
	// VMs is the simulated-VM fleet size passed to fuzzing campaigns
	// (fuzzer.Config.VMs); 0 means one VM.
	VMs int
	// BatchSize is the serving micro-batch limit (see serve.Options);
	// 0 leaves batching off.
	BatchSize int
	// GraphCache sizes the builder's graph-encoding LRU cache on servers
	// the harness creates; 0 disables it.
	GraphCache int
	// FaultModel, when non-nil, is the fault shape (at rate 1.0) swept by
	// the degraded-serving ablation; nil uses the default shape.
	FaultModel *faultinject.Model
	// SampleInterval is the wall-clock metrics sampling period of the
	// timeseries experiment; 0 uses obs.DefaultSampleInterval.
	SampleInterval time.Duration
}

// Quick returns options sized so the full suite completes in minutes.
func Quick() Options {
	return Options{
		Seed:             1,
		Bases:            120,
		MutationsPerBase: 220,
		TrainEpochs:      8,
		FuzzBudget:       1_000_000,
		LongBudget:       3_000_000,
		DirectedBudget:   300_000,
		Repeats:          2,
		Workers:          2,
	}
}

// Full returns options close to a faithful (if still laptop-scale)
// rendition of the paper's experiment sizes.
func Full() Options {
	return Options{
		Seed:             1,
		Bases:            400,
		MutationsPerBase: 400,
		TrainEpochs:      20,
		FuzzBudget:       6_000_000,
		LongBudget:       30_000_000,
		DirectedBudget:   1_500_000,
		Repeats:          5,
		Workers:          8,
	}
}

func (o Options) withDefaults() Options {
	q := Quick()
	if o.Seed == 0 {
		o.Seed = q.Seed
	}
	if o.Bases == 0 {
		o.Bases = q.Bases
	}
	if o.MutationsPerBase == 0 {
		o.MutationsPerBase = q.MutationsPerBase
	}
	if o.TrainEpochs == 0 {
		o.TrainEpochs = q.TrainEpochs
	}
	if o.FuzzBudget == 0 {
		o.FuzzBudget = q.FuzzBudget
	}
	if o.LongBudget == 0 {
		o.LongBudget = q.LongBudget
	}
	if o.DirectedBudget == 0 {
		o.DirectedBudget = q.DirectedBudget
	}
	if o.Repeats == 0 {
		o.Repeats = q.Repeats
	}
	if o.Workers == 0 {
		o.Workers = q.Workers
	}
	return o
}

// Harness caches expensive artifacts (kernels, datasets, the trained model)
// across experiments.
type Harness struct {
	Opts Options
	// Log receives progress lines; nil discards them.
	Log io.Writer

	mu       sync.Mutex
	kernels  map[string]*kernel.Kernel
	analyses map[string]*cfa.Analysis
	ds       *dataset.Dataset
	dsStats  dataset.CollectStats
	splits   [3]*dataset.Dataset
	model    *pmm.Model
	report   pmm.TrainReport
}

// NewHarness creates a harness with defaults filled in.
func NewHarness(opts Options) *Harness {
	return &Harness{
		Opts:     opts.withDefaults(),
		kernels:  map[string]*kernel.Kernel{},
		analyses: map[string]*cfa.Analysis{},
	}
}

func (h *Harness) logf(format string, args ...interface{}) {
	if h.Log != nil {
		fmt.Fprintf(h.Log, format, args...)
	}
}

// Kernel returns the cached kernel build for a version.
func (h *Harness) Kernel(version string) *kernel.Kernel {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.kernelLocked(version)
}

func (h *Harness) kernelLocked(version string) *kernel.Kernel {
	if k, ok := h.kernels[version]; ok {
		return k
	}
	h.logf("building kernel %s...\n", version)
	k := kernel.MustBuild(version)
	h.kernels[version] = k
	h.analyses[version] = cfa.New(k)
	return k
}

// Analysis returns the cached CFG analysis for a version.
func (h *Harness) Analysis(version string) *cfa.Analysis {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.kernelLocked(version)
	return h.analyses[version]
}

// Dataset returns the §3.1 dataset harvested on kernel 6.8 (cached), along
// with collection statistics.
func (h *Harness) Dataset() (*dataset.Dataset, dataset.CollectStats) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ds != nil {
		return h.ds, h.dsStats
	}
	k := h.kernelLocked("6.8")
	an := h.analyses["6.8"]
	h.logf("collecting dataset: %d bases x %d mutations...\n", h.Opts.Bases, h.Opts.MutationsPerBase)
	g := prog.NewGenerator(k.Target)
	r := rng.New(h.Opts.Seed + 0xda7a)
	bases := make([]*prog.Prog, h.Opts.Bases)
	for i := range bases {
		bases[i] = g.Generate(r, 3+r.Intn(4))
	}
	c := dataset.NewCollector(k, an)
	c.MutationsPerBase = h.Opts.MutationsPerBase
	c.Workers = h.Opts.CollectWorkers
	h.ds, h.dsStats = c.Collect(rng.New(h.Opts.Seed+0xc011), bases)
	train, val, eval := h.ds.Split(0.8, 0.1)
	h.splits = [3]*dataset.Dataset{train, val, eval}
	h.logf("dataset: %d examples (train %d / val %d / eval %d)\n",
		h.ds.Len(), train.Len(), val.Len(), eval.Len())
	return h.ds, h.dsStats
}

// Splits returns the train/val/eval datasets.
func (h *Harness) Splits() (train, val, eval *dataset.Dataset) {
	h.Dataset()
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.splits[0], h.splits[1], h.splits[2]
}

// Model returns the PMM trained on kernel 6.8 (cached), with its training
// report.
func (h *Harness) Model() (*pmm.Model, pmm.TrainReport) {
	train, val, _ := h.Splits()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.model != nil {
		return h.model, h.report
	}
	k := h.kernelLocked("6.8")
	an := h.analyses["6.8"]
	tcfg := pmm.DefaultTrainConfig()
	tcfg.Epochs = h.Opts.TrainEpochs
	tcfg.Seed = h.Opts.Seed
	tcfg.Batch = h.Opts.TrainBatch
	tcfg.Workers = h.Opts.TrainWorkers
	h.logf("training PMM: %d examples, %d epochs...\n", train.Len(), tcfg.Epochs)
	m, report := pmm.Train(qgraph.NewBuilder(k, an), pmm.DefaultConfig(), tcfg, train, val)
	h.logf("training done: final val F1 %.3f, threshold %.2f\n",
		last(report.ValF1), report.Threshold)
	h.model = m
	h.report = report
	return h.model, h.report
}

// Server builds an inference server over the trained model for the given
// kernel version. The caller must Close it.
func (h *Harness) Server(version string) *serve.Server {
	return h.ServerOpts(version, serve.Options{})
}

// ServerOpts builds an inference server with explicit serving options
// (fault models, pool, batch and queue sizes). Workers defaults to the
// harness's pool size. The caller must Close it.
func (h *Harness) ServerOpts(version string, opts serve.Options) *serve.Server {
	m, _ := h.Model()
	k := h.Kernel(version)
	an := h.Analysis(version)
	if opts.Workers == 0 {
		opts.Workers = h.Opts.Workers
	}
	if opts.BatchSize == 0 {
		opts.BatchSize = h.Opts.BatchSize
	}
	builder := qgraph.NewBuilder(k, an)
	if h.Opts.GraphCache > 0 {
		builder.WithCache(h.Opts.GraphCache)
	}
	return serve.NewServerOpts(m, builder, opts)
}

func last(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}
