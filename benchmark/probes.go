package main

import (
	"runtime"
	"time"

	"github.com/repro/snowplow/internal/corpus"
	"github.com/repro/snowplow/internal/exec"
	"github.com/repro/snowplow/internal/mutation"
	"github.com/repro/snowplow/internal/nn"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/trace"
)

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

// probeBatches divides every probe's call count. The counts are multiples
// of 8 * probeBatches so that the batched forward splits evenly too.
const probeBatches = 5

// probes calls each layer's public function a fixed number of times on one
// goroutine and returns nanoseconds per call under the per-layer metric
// names (plus the counts read along the way). The fuzz-loop probes run over
// entries, the workload's own final corpus or, on a serve workload, the
// pool's programs; the query-path and forward probes over the query pool. So
// a workload that bypasses a layer still reports what a call into it costs.
func (e *env) probes(rec *recorder, entries []*corpus.Entry) map[string]float64 {
	root := rec.begin("probes", -1, 0)
	defer rec.end(root)
	out := map[string]float64{}
	n := e.sz.ProbeCalls
	heavy := n / 10
	// measure times calls of fn(i) in probeBatches equal batches and returns
	// the median batch's ns per call: a collection or a stall lands in one
	// batch and leaves the median alone.
	measure := func(name string, calls int, fn func(i int)) float64 {
		// Start every probe from a collected heap: what the pass before it,
		// or the probe before it, left behind is not this function's cost.
		runtime.GC()
		span := rec.begin("probe:"+name, root, 0)
		per := calls / probeBatches
		batches := make([]float64, probeBatches)
		for b := range batches {
			t0 := time.Now()
			for i := b * per; i < (b+1)*per; i++ {
				fn(i)
			}
			batches[b] = float64(time.Since(t0).Nanoseconds()) / float64(per)
		}
		rec.end(span)
		return median(batches)
	}
	probe := func(name string, calls int, fn func(i int)) { out[name] = measure(name, calls, fn) }
	entry := func(i int) *corpus.Entry { return entries[i%len(entries)] }
	r := rng.New(e.seed ^ 0x9106e5)

	gen := prog.NewGenerator(e.k.Target)
	probe("prog.generate_ns", n, func(int) { sink += len(gen.Generate(r, 2+r.Intn(5)).Calls) })

	// Mutants of corpus entries are what the loop executes and triages.
	mut := mutation.NewMutator(e.k.Target)
	mutants := make([]*prog.Prog, n)
	probe("mutation.mutate_ns", n, func(i int) { mutants[i] = mut.Mutate(r, entry(i).Prog).Prog })

	machine := exec.NewMachine(e.k, 0)
	results := make([]*exec.Result, n)
	var blocks int
	probe("exec.run_ns", n, func(i int) {
		res, err := machine.Run(mutants[i])
		if err != nil {
			panic(err) // a generated program the executor rejects is a bug
		}
		results[i] = res
		blocks += res.Cost
	})
	out["exec.blocks_per_run"] = float64(blocks) / float64(n)

	cover, blockSet := trace.NewCover(), trace.BlockSet{}
	probe("trace.edges_ns", n, func(i int) { sink += trace.EdgesOfInto(cover, results[i]).Len() })
	probe("trace.blockset_ns", n, func(i int) { sink += trace.BlockSetOfInto(&blockSet, results[i]).Len() })

	// Triage in the loop's steady state, where nearly every test is a new
	// program that covers nothing new: the corpus holds the entries and,
	// under other programs, the mutants' coverage already.
	corp := corpus.New()
	total := trace.NewCover()
	for _, en := range entries {
		corp.SeedEntry(en)
		total.Merge(en.Cover)
	}
	covers := make([]*trace.Cover, n)
	sets := make([]trace.BlockSet, n)
	for i, res := range results {
		covers[i] = trace.EdgesOf(res)
		sets[i] = trace.NewBlockSet(trace.BlocksOf(res))
		corp.Seed(gen.Generate(r, 1), covers[i], sets[i], res.CallTraces)
	}
	probe("trace.merge_ns", n, func(i int) { sink += total.Merge(entry(i).Cover) })
	probe("corpus.newedges_ns", n, func(i int) { sink += corp.NewEdges(covers[i]) })
	probe("corpus.choose_ns", n, func(int) { sink += len(corp.Choose(r).Text) })
	probe("corpus.add_ns", n, func(i int) { sink += corp.Add(mutants[i], covers[i], sets[i], results[i].CallTraces) })

	probe("cfa.frontier_ns", n, func(i int) { sink += len(e.an.Frontier(entry(i).Blocks)) })

	plain := qgraph.NewBuilder(e.k, e.an)
	graphs := make([]*qgraph.Graph, heavy)
	var nodes int
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocBefore := ms.TotalAlloc
	probe("qgraph.build_ns", heavy, func(i int) {
		q := e.pool[i%len(e.pool)]
		graphs[i] = plain.Build(q.Prog, q.Traces, q.Targets)
		nodes += len(graphs[i].Vertices)
	})
	runtime.ReadMemStats(&ms)
	out["qgraph.alloc_kb_per_build"] = float64(ms.TotalAlloc-allocBefore) / 1e3 / float64(heavy)
	out["qgraph.nodes_per_graph"] = float64(nodes) / float64(heavy)

	cached := qgraph.NewBuilder(e.k, e.an).WithCache(heavy)
	for i := 0; i < heavy; i++ {
		q := e.pool[i%len(e.pool)]
		cached.Build(q.Prog, q.Traces, q.Targets)
	}
	probe("qgraph.hit_ns", n, func(i int) {
		q := e.pool[i%heavy%len(e.pool)]
		_, hit := cached.BuildCached(q.Prog, q.Traces, q.Targets)
		if !hit {
			panic("qgraph.hit_ns probe missed a cache sized to its inputs")
		}
	})

	probe("pmm.predict_ns", heavy, func(i int) {
		slots, _ := e.model.Predict(graphs[i])
		sink += len(slots)
	})
	const batch = 8
	probe("pmm.predict_batch8_ns_per_query", heavy/batch, func(i int) {
		slots, _ := e.model.PredictBatch(graphs[i*batch : (i+1)*batch])
		sink += len(slots)
	})
	out["pmm.predict_batch8_ns_per_query"] /= batch

	// The same batched forward with kernel timing on: where its time goes.
	nn.SetKernelProfiling(true)
	before := e.model.InferProfile()
	forwardNs := measure("nn.profiled_forward", heavy/batch, func(i int) {
		slots, _ := e.model.PredictBatch(graphs[i*batch : (i+1)*batch])
		sink += len(slots)
	}) / batch
	nn.SetKernelProfiling(false)
	k := e.model.InferProfile()
	queries := float64(heavy / batch * batch)
	out["nn.fused_linear_ns"] = float64(k.FusedLinearNs-before.FusedLinearNs) / queries
	out["nn.attention_ns"] = float64(k.AttentionNs-before.AttentionNs) / queries
	out["nn.norm_ns"] = float64(k.NormNs-before.NormNs) / queries
	out["nn.matmul_ns"] = float64(k.MatMulNs-before.MatMulNs) / queries
	out["nn.softmax_ns"] = float64(k.SoftmaxNs-before.SoftmaxNs) / queries
	out["nn.kernel_share"] = float64(k.KernelNs()-before.KernelNs()) / queries / forwardNs
	return out
}
