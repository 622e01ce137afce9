package main

import (
	"bytes"
	"fmt"
	"time"

	"github.com/repro/snowplow/internal/cfa"
	"github.com/repro/snowplow/internal/corpus"
	"github.com/repro/snowplow/internal/dataset"
	"github.com/repro/snowplow/internal/exec"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/mutation"
	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/serve"
)

const kernelVersion = "6.8"

// sizes fixes how much work set-up and each workload do. They are recorded
// in every result file; two results compare only at equal sizes.
type sizes struct {
	// Dataset harvest and training. Training dominates set-up, so these
	// are a fraction of experiments.Quick: the model has to predict with a
	// realistic sparsity, not localize well.
	Bases            int `json:"bases"`
	MutationsPerBase int `json:"mutations_per_base"`
	TrainEpochs      int `json:"train_epochs"`
	// Pool is how many distinct queries the pool holds: one per generated
	// program, four times the graph cache.
	Pool int `json:"pool"`
	// A round is CampaignSeeds campaigns, each on its own campaign seed and
	// its own SeedPrograms seed programs, so a round's numbers are not one
	// campaign's luck. Budgets are per campaign, in simulated blocks;
	// SyncEvery is the per-VM cost between barriers of the two-VM campaigns.
	CampaignSeeds int   `json:"campaign_seeds"`
	SeedPrograms  int   `json:"seed_programs"`
	SyzBudget     int64 `json:"syz_budget"`
	SnowBudget    int64 `json:"snow_budget"`
	SyncEvery     int64 `json:"sync_every"`
	// The common serving shape.
	GraphCache   int `json:"graph_cache"`
	ServeWorkers int `json:"serve_workers"`
	BatchSize    int `json:"batch_size"`
	QueueSize    int `json:"queue_size"`
	// The serve workloads' closed loop.
	Clients int `json:"clients"`
	Window  int `json:"window"`
	// HotSet is how many pool queries serve_hot draws from; it must fit
	// the graph cache.
	HotSet int `json:"hot_set"`
	// ProbeCalls is how often a probe calls its cheap function; probes of
	// expensive functions (graph build, forward) call ProbeCalls/10. A
	// multiple of 400 (see probeBatches).
	ProbeCalls int `json:"probe_calls"`
	// SetupRuns is how often set-up runs for the median setup_s.
	SetupRuns int `json:"setup_runs"`
}

func fullSizes() sizes {
	return sizes{
		Bases: 40, MutationsPerBase: 120, TrainEpochs: 1, Pool: 4096,
		CampaignSeeds: 4, SeedPrograms: 20, SyzBudget: 1_000_000, SnowBudget: 400_000, SyncEvery: 25_000,
		GraphCache: 1024, ServeWorkers: 2, BatchSize: 8, QueueSize: 1024,
		Clients: 2, Window: 8, HotSet: 1024,
		ProbeCalls: 8000, SetupRuns: 3,
	}
}

// smokeSizes is the scale the tests run every workload at.
func smokeSizes() sizes {
	s := fullSizes()
	s.Bases, s.MutationsPerBase, s.Pool = 10, 40, 128
	s.CampaignSeeds, s.SyzBudget, s.SnowBudget, s.SyncEvery = 2, 20_000, 20_000, 1_000
	s.GraphCache, s.HotSet = 32, 32
	s.ProbeCalls, s.SetupRuns = 400, 1
	return s
}

// env is what set-up builds and every workload reads.
type env struct {
	sz    sizes
	seed  uint64
	k     *kernel.Kernel
	an    *cfa.Analysis
	model *pmm.Model
	// modelBytes is the saved model, which the cluster spec carries.
	modelBytes []byte
	// campaignSeeds are the campaign seeds drawn from -seed, and seedProgs
	// the seed corpus of each.
	campaignSeeds []uint64
	seedProgs     [][]*prog.Prog
	// pool are the distinct queries, one per entry: a generated and
	// mutated program with its traces, as a corpus would hold it.
	entries []*corpus.Entry
	pool    []serve.Query
	phases  setupPhases
}

// setupPhases times each phase of one set-up.
type setupPhases struct {
	kernelS, cfaS, collectS, trainS, poolS float64
	examples, trainExamples                int
	valF1                                  float64
}

// timed runs fn under a span and returns its wall time in seconds.
func timed(rec *recorder, name string, parent int, fn func()) float64 {
	id := rec.begin(name, parent, 0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	rec.end(id)
	return d.Seconds()
}

// setup builds the kernel, trains the model and generates every input from
// seed. The training seed stays 1 whatever seed is: the workloads measure
// serving and fuzzing, not the luck of one training run.
func setup(seed uint64, sz sizes, rec *recorder, parent int) (*env, error) {
	e := &env{sz: sz, seed: seed}
	var err error
	e.phases.kernelS = timed(rec, "kernel.Build", parent, func() { e.k, err = kernel.Build(kernelVersion) })
	if err != nil {
		return nil, err
	}
	e.phases.cfaS = timed(rec, "cfa.New", parent, func() { e.an = cfa.New(e.k) })

	gen := prog.NewGenerator(e.k.Target)
	var train, val *dataset.Dataset
	e.phases.collectS = timed(rec, "dataset.Collect", parent, func() {
		r := rng.New(1 + 0xda7a)
		bases := make([]*prog.Prog, sz.Bases)
		for i := range bases {
			bases[i] = gen.Generate(r, 3+r.Intn(4))
		}
		c := dataset.NewCollector(e.k, e.an)
		c.MutationsPerBase = sz.MutationsPerBase
		ds, _ := c.Collect(rng.New(1+0xc011), bases)
		e.phases.examples = ds.Len()
		train, val, _ = ds.Split(0.8, 0.1)
	})
	if train.Len() == 0 {
		return nil, fmt.Errorf("dataset harvest produced no training examples")
	}
	e.phases.trainExamples = train.Len() * sz.TrainEpochs
	e.phases.trainS = timed(rec, "pmm.Train", parent, func() {
		tcfg := pmm.DefaultTrainConfig()
		tcfg.Epochs = sz.TrainEpochs
		var report pmm.TrainReport
		e.model, report = pmm.Train(qgraph.NewBuilder(e.k, e.an), pmm.DefaultConfig(), tcfg, train, val)
		if n := len(report.ValF1); n > 0 {
			e.phases.valF1 = report.ValF1[n-1]
		}
	})
	var buf bytes.Buffer
	if err := e.model.Save(&buf); err != nil {
		return nil, fmt.Errorf("saving model: %w", err)
	}
	e.modelBytes = buf.Bytes()
	// What a fused server does to a model it is given; done here so the
	// probes forward through the serving path on workloads without a server.
	e.model.Freeze()
	e.model.EnableFused()

	r := rng.New(seed ^ 0x5eedc0de)
	e.campaignSeeds = make([]uint64, sz.CampaignSeeds)
	e.seedProgs = make([][]*prog.Prog, sz.CampaignSeeds)
	for i := range e.campaignSeeds {
		e.campaignSeeds[i] = r.Uint64()
		e.seedProgs[i] = make([]*prog.Prog, sz.SeedPrograms)
		for j := range e.seedProgs[i] {
			e.seedProgs[i][j] = gen.Generate(r, 2+r.Intn(5))
		}
	}
	e.phases.poolS = timed(rec, "bench.pool", parent, func() { err = e.buildPool(r, gen) })
	return e, err
}

// buildPool generates the query pool. Each query is a fresh program put
// through up to three mutations, as a corpus entry's lineage would be,
// executed for its traces, with 1 to 16 target blocks drawn from its
// frontier. The programs are independent draws, so the pool's mean query
// cost, which the serve workloads' throughput follows, barely depends on
// the seed.
func (e *env) buildPool(r *rng.Rand, gen *prog.Generator) error {
	mut := mutation.NewMutator(e.k.Target)
	machine := exec.NewMachine(e.k, 0)
	seen := map[qgraph.QueryKey]bool{}
	for tries := 0; len(e.pool) < e.sz.Pool; tries++ {
		if tries > 4*e.sz.Pool {
			return fmt.Errorf("query pool holds %d distinct queries after %d programs, want %d", len(e.pool), tries, e.sz.Pool)
		}
		p := gen.Generate(r, 2+r.Intn(5))
		for m := r.Intn(4); m > 0; m-- {
			p = mut.Mutate(r, p).Prog
		}
		res, err := machine.Run(p)
		if err != nil {
			return fmt.Errorf("pool program: %w", err)
		}
		en := corpus.EntryFromTraces(p, res.CallTraces)
		alts := e.an.Frontier(en.Blocks)
		if len(alts) == 0 {
			continue
		}
		n := 1 + r.Intn(16)
		if n > len(alts) {
			n = len(alts)
		}
		targets := make([]kernel.BlockID, n)
		for i, j := range r.Perm(len(alts))[:n] {
			targets[i] = alts[j].Entry
		}
		if key := qgraph.HashQuery(p, en.Traces, targets); !seen[key] {
			seen[key] = true
			e.entries = append(e.entries, en)
			e.pool = append(e.pool, serve.Query{Prog: p, Traces: en.Traces, Targets: targets})
		}
	}
	return nil
}

// builder returns a graph builder of the common serving shape.
func (e *env) builder() *qgraph.Builder {
	return qgraph.NewBuilder(e.k, e.an).WithCache(e.sz.GraphCache)
}

// serveOptions is the common serving shape of every inference workload.
func (e *env) serveOptions() serve.Options {
	return serve.Options{Workers: e.sz.ServeWorkers, BatchSize: e.sz.BatchSize, Fused: true, QueueSize: e.sz.QueueSize}
}
