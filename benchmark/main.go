// Command benchmark is the repository's one benchmark: five fixed workloads
// over the whole pipeline, four end-to-end metrics on each, and a traced
// per-layer budget. README.md explains the workloads, the metrics and how
// they are expected to move together; BENCHMARK.json at the repository root
// is its contract with the driver.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/repro/snowplow/internal/cluster"
	"github.com/repro/snowplow/internal/fuzzer"
	"github.com/repro/snowplow/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// manifestFile is the contract with the driver, at the root of the checkout,
// where run.sh starts the program.
const manifestFile = "BENCHMARK.json"

// Which metrics a run reports: the driver asks for one or the other; by
// hand, the default is both.
const (
	traceOff  = 0 // end-to-end metrics from an untraced pass
	traceOn   = 1 // per-layer metrics from a traced pass and the probes
	traceBoth = 2
)

type options struct {
	workloads []string
	seed      uint64
	seconds   float64
	trace     int
	smoke     bool
	out       string
	traceDir  string
}

// run is main without the process exit, so tests can call it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var names string
	var compare bool
	fs.StringVar(&names, "workload", "", "comma-separated workloads to run (default: all five)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of every generated input: seed corpus, campaign seeds, query pool")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long each workload measures")
	fs.IntVar(&o.trace, "trace", traceBoth, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced; 2: both")
	fs.BoolVar(&o.smoke, "smoke", false, "run at the tests' scale: tiny model, budgets and pool")
	fs.StringVar(&o.out, "out", "", "also write the results, with a host block, to this JSON file")
	fs.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "directory the traced run writes its Chrome trace to")
	fs.BoolVar(&compare, "compare", false, "compare two result files: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare old.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), manifestFile, stdout, stderr)
	}
	if fs.NArg() != 0 || o.trace < traceOff || o.trace > traceBoth || o.seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: unexpected arguments, -trace outside 0..2, or -seconds not positive")
		return 2
	}
	known := map[string]bool{}
	for _, w := range workloads {
		known[w.Name] = true
		if names == "" {
			o.workloads = append(o.workloads, w.Name)
		}
	}
	if names != "" {
		for _, name := range strings.Split(names, ",") {
			if !known[name] {
				fmt.Fprintf(stderr, "benchmark: unknown or repeated workload %q\n", name)
				return 2
			}
			known[name] = false
			o.workloads = append(o.workloads, name)
		}
	}
	file, err := benchmark(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if o.out != "" {
		file.Host = readHost()
		data, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(o.out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	for _, w := range file.Workloads {
		if !w.Correct {
			fmt.Fprintf(stderr, "benchmark: workload %s failed its correctness gate: %s\n", w.Name, strings.Join(w.Problems, "; "))
			return 1
		}
	}
	return 0
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Host      host             `json:"host"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Smoke     bool             `json:"smoke"`
	Sizes     sizes            `json:"sizes"`
	Workloads []workloadResult `json:"workloads"`
	// ParityPct is ops_per_s of fuzz_snow over fuzz_syz, the paper's §5.5
	// throughput parity (98 % there, on separate serving hardware; here the
	// server shares two cores with two VMs). 0 unless both ran.
	ParityPct float64 `json:"parity_pct"`
}

type workloadResult struct {
	Name      string            `json:"name"`
	Correct   bool              `json:"correct"`
	Problems  []string          `json:"problems,omitempty"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	EndToEnd  map[string]sample `json:"end_to_end,omitempty"`
	PerLayer  map[string]sample `json:"per_layer,omitempty"`
	TraceFile string            `json:"trace_file,omitempty"`
}

// host records where a result was measured.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Commit     string `json:"commit"`
}

func readHost() host {
	h := host{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH, Commit: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// benchmark sets up once and runs each workload, printing every metric by
// name with its unit and, last for each workload, the driver's JSON line.
func benchmark(o options, stdout io.Writer) (resultFile, error) {
	sz := fullSizes()
	if o.smoke {
		sz = smokeSizes()
	}
	file := resultFile{Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke, Sizes: sz}
	doE2E, doLayers := o.trace != traceOn, o.trace != traceOff
	var rec *recorder
	if doLayers {
		rec = newRecorder("setup")
	}

	setupRuns := sz.SetupRuns
	if !doE2E {
		setupRuns = 1
	}
	var e *env
	var setupTimes []float64
	for i := 0; i < setupRuns; i++ {
		// Only the last set-up is traced; the earlier ones are discarded.
		var r *recorder
		if i == setupRuns-1 {
			r = rec
		}
		root := r.begin("setup", -1, 0)
		t0 := time.Now()
		var err error
		if e, err = setup(o.seed, sz, r, root); err != nil {
			return file, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		r.end(root)
	}

	dur := time.Duration(o.seconds * float64(time.Second))
	for _, w := range o.workloads {
		res := workloadResult{Name: w}
		var untraced *pass
		var err error
		if doE2E {
			if untraced, err = e.runPass(w, dur, nil, nil); err != nil {
				return file, err
			}
			res.EndToEnd = endToEndMetrics(untraced, setupTimes)
		}
		if doLayers {
			// The traced pass takes half the time. Asked for per-layer
			// metrics alone, an untraced half goes first: latencies and the
			// tracing overhead are read against it.
			if untraced == nil {
				if untraced, err = e.runPass(w, dur/2, nil, nil); err != nil {
					return file, err
				}
			}
			rec.workload = w
			reg := obs.NewRegistry()
			stop, peak := make(chan struct{}), make(chan uint64)
			go func() { peak <- heapPeak(stop) }()
			traced, err := e.runPass(w, dur/2, rec, reg)
			close(stop)
			heap := <-peak
			if err != nil {
				return file, err
			}
			entries := untraced.entries
			if entries == nil {
				entries = e.entries
			}
			probed := e.probes(rec, entries)
			spans := 0
			for _, s := range rec.closed() {
				if s.Workload == w {
					spans++
				}
			}
			res.PerLayer = e.layerMetrics(w, untraced, traced, probed, reg, heap, spans)
			untraced.problems = append(untraced.problems, traced.problems...)
		}
		res.Attempted, res.Failed = untraced.attempted, untraced.failed
		res.Problems = untraced.problems
		res.Correct = len(res.Problems) == 0
		file.Workloads = append(file.Workloads, res)
	}
	if doLayers {
		name := fmt.Sprintf("%s-seed%d.json", strings.Join(o.workloads, "+"), o.seed)
		path := filepath.Join(o.traceDir, name)
		if err := writeChrome(path, rec.closed()); err != nil {
			return file, fmt.Errorf("writing trace: %w", err)
		}
		for i := range file.Workloads {
			file.Workloads[i].TraceFile = path
		}
	}
	syz, snow := file.workload("fuzz_syz"), file.workload("fuzz_snow")
	if syz != nil && snow != nil && doE2E {
		file.ParityPct = 100 * ratio(snow.EndToEnd["ops_per_s"].Value, syz.EndToEnd["ops_per_s"].Value)
	}
	file.print(stdout)
	return file, nil
}

func (f *resultFile) workload(name string) *workloadResult {
	for i := range f.Workloads {
		if f.Workloads[i].Name == name {
			return &f.Workloads[i]
		}
	}
	return nil
}

// endToEndMetrics reads the four end-to-end metrics off an untraced pass.
func endToEndMetrics(p *pass, setupTimes []float64) map[string]sample {
	ops := float64(p.ops)
	return map[string]sample{
		"setup_s":         summarize(setupTimes, "s"),
		"ops_per_s":       summarize(p.rates, "1/s"),
		"cpu_us_per_op":   single(float64(p.used.cpu.Microseconds())/ops, "us"),
		"alloc_kb_per_op": single(float64(p.used.alloc)/1e3/ops, "kB"),
	}
}

// print writes every metric by name with its unit, then one driver line per
// workload: a JSON object with exactly correct, attempted, failed, metrics.
func (f *resultFile) print(w io.Writer) {
	for _, res := range f.Workloads {
		fmt.Fprintf(w, "== %s: attempted %d, failed %d, correct %t\n", res.Name, res.Attempted, res.Failed, res.Correct)
		for _, p := range res.Problems {
			fmt.Fprintf(w, "   PROBLEM: %s\n", p)
		}
		printMetrics(w, endToEnd, res.EndToEnd)
		printMetrics(w, perLayer, res.PerLayer)
		if res.TraceFile != "" {
			fmt.Fprintf(w, "   trace: %s\n", res.TraceFile)
		}
	}
	if f.ParityPct > 0 {
		fmt.Fprintf(w, "parity_pct %.1f %% (ops_per_s of fuzz_snow, 2 VMs sharing 2 cores with its server, over fuzz_syz, 1 VM; the paper reports 98 %% with inference on separate hardware)\n", f.ParityPct)
	}
	for _, res := range f.Workloads {
		metrics := map[string]map[string]any{}
		for _, set := range []map[string]sample{res.EndToEnd, res.PerLayer} {
			for name, s := range set {
				metrics[name] = map[string]any{"value": s.Value, "unit": s.Unit}
			}
		}
		line, err := json.Marshal(map[string]any{
			"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
		})
		if err != nil {
			panic(err) // a map of numbers and strings always marshals
		}
		fmt.Fprintf(w, "%s\n", line)
	}
}

func printMetrics(w io.Writer, decls []metricDecl, got map[string]sample) {
	for _, d := range decls {
		s, ok := got[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "   %-36s %14.4f %-6s", d.Name, s.Value, s.Unit)
		if s.Samples > 1 {
			fmt.Fprintf(w, " median of %d, %.4f to %.4f", s.Samples, s.Min, s.Max)
		}
		fmt.Fprintln(w)
	}
}

// layerMetrics assembles every per-layer metric of one workload from its
// untraced pass (counters, latencies), its traced pass (kernel time, queue
// wait) and the probes. A layer the workload bypasses stays 0.
func (e *env) layerMetrics(w string, un, tr *pass, probed map[string]float64, reg *obs.Registry, heap uint64, spans int) map[string]sample {
	v := map[string]float64{}
	for name, x := range probed {
		v[name] = x
	}
	ph := e.phases
	v["kernel.build_s"], v["cfa.new_s"], v["dataset.collect_s"] = ph.kernelS, ph.cfaS, ph.collectS
	v["dataset.examples"] = float64(ph.examples)
	v["pmm.train_s"], v["pmm.train_examples_per_s"], v["pmm.val_f1"] = ph.trainS, ratio(float64(ph.trainExamples), ph.trainS), ph.valF1
	v["bench.pool_s"], v["bench.pool_queries"] = ph.poolS, float64(len(e.pool))

	ops, wall := float64(un.ops), un.wall.Seconds()
	v["runtime.gc_per_kop"] = 1e3 * float64(un.used.gcs) / ops
	v["runtime.heap_peak_mb"] = float64(heap) / 1e6
	v["bench.trace_overhead_pct"] = 100 * (ratio(median(un.rates), median(tr.rates)) - 1)
	v["bench.spans"] = float64(spans)

	hitRate := ratio(float64(un.serve.CacheHits), float64(un.serve.CacheHits+un.serve.CacheMisses))
	if isCampaign(w) {
		// Counts are summed over the first round's campaigns.
		var st fuzzer.Stats
		var vms, epochs float64
		for _, rep := range un.first {
			s := rep.stats
			st.Executions += s.Executions
			st.FinalEdges += s.FinalEdges
			st.CorpusSize += s.CorpusSize
			st.PMMQueries += s.PMMQueries
			st.PMMCacheHits += s.PMMCacheHits
			st.PMMCacheMisses += s.PMMCacheMisses
			st.Yield.GenerateExecs += s.Yield.GenerateExecs
			st.Yield.GuidedExecs += s.Yield.GuidedExecs
			st.Yield.GuidedEdges += s.Yield.GuidedEdges
			st.Yield.RandArgExecs += s.Yield.RandArgExecs
			st.Yield.RandArgEdges += s.Yield.RandArgEdges
			vms = float64(len(s.VMs))
			epochs += float64(s.VMs[0].Epochs)
		}
		execs := float64(st.Executions)
		v["fuzzer.execs"], v["fuzzer.edges"], v["fuzzer.corpus_size"] = execs, float64(st.FinalEdges), float64(st.CorpusSize)
		// What the probes say one test costs in the plain loop, against
		// what a VM had: on fuzz_syz the two must nearly agree.
		gen := ratio(float64(st.Yield.GenerateExecs), execs)
		perTest := gen*v["prog.generate_ns"] + (1-gen)*v["mutation.mutate_ns"] +
			v["exec.run_ns"] + v["trace.edges_ns"] + v["trace.blockset_ns"] + v["corpus.add_ns"]
		v["fuzzer.loop_attributed_share"] = ops * perTest / 1e9 / (vms * wall)
		if w != "fuzz_syz" {
			// The campaign-side cache simulation is a pure function of the
			// seed; the cluster engine does not run it, and the server's own
			// counters, in wall-clock arrival order, stand in.
			if sim := st.PMMCacheHits + st.PMMCacheMisses; sim > 0 {
				hitRate = ratio(float64(st.PMMCacheHits), float64(sim))
			}
			v["fuzzer.epochs"] = epochs
			v["fuzzer.queries"] = float64(st.PMMQueries)
			v["fuzzer.queries_per_s"] = float64(un.attempted-un.ops) / wall
			v["fuzzer.barrier_wait_share"] = float64(un.barrierWaitNs) / 1e9 / (vms * wall)
			if h := histogram(reg, "fuzzer_barrier_wait_ns"); h.Count > 0 {
				v["fuzzer.barrier_wait_ms_per_epoch"] = float64(h.Sum) / 1e6 / float64(h.Count)
			}
			v["fuzzer.guided_exec_share"] = ratio(float64(st.Yield.GuidedExecs), execs)
			v["fuzzer.guided_edges_per_kexec"] = 1e3 * ratio(float64(st.Yield.GuidedEdges), float64(st.Yield.GuidedExecs))
			v["fuzzer.randarg_edges_per_kexec"] = 1e3 * ratio(float64(st.Yield.RandArgEdges), float64(st.Yield.RandArgExecs))
		}
		if w == "cluster_snow" {
			var wire cluster.WireStats
			var firstWall time.Duration
			var checkpoint []byte
			for _, rep := range un.first {
				wire.TxWireBytes += rep.wire.TxWireBytes
				wire.RxWireBytes += rep.wire.RxWireBytes
				wire.TxRawBytes += rep.wire.TxRawBytes
				wire.RxRawBytes += rep.wire.RxRawBytes
				wire.Epochs += rep.wire.Epochs
				firstWall += rep.wall
				v["cluster.checkpoints"] += float64(rep.checkpoints)
				checkpoint = rep.checkpoint
			}
			v["cluster.overhead_ratio"] = ratio(firstWall.Seconds(), un.refWall.Seconds())
			v["cluster.wire_tx_kb_per_epoch"] = ratio(float64(wire.TxWireBytes)/1e3, float64(wire.Epochs))
			v["cluster.wire_rx_kb_per_epoch"] = ratio(float64(wire.RxWireBytes)/1e3, float64(wire.Epochs))
			v["cluster.wire_kb_per_epoch"] = v["cluster.wire_tx_kb_per_epoch"] + v["cluster.wire_rx_kb_per_epoch"]
			v["cluster.compress_ratio"] = ratio(float64(wire.TxRawBytes+wire.RxRawBytes), float64(wire.TxWireBytes+wire.RxWireBytes))
			v["cluster.checkpoint_kb"] = float64(len(checkpoint)) / 1e3
			if len(checkpoint) > 0 {
				t0 := time.Now()
				ck, err := cluster.DecodeCheckpoint(checkpoint)
				v["cluster.checkpoint_decode_ms"] = float64(time.Since(t0)) / 1e6
				if err == nil {
					t0 = time.Now()
					sink += len(ck.Encode())
					v["cluster.checkpoint_encode_ms"] = float64(time.Since(t0)) / 1e6
				}
			}
		}
	}
	if w != "fuzz_syz" {
		sv := un.serve
		v["qgraph.hit_rate"] = hitRate
		v["serve.queries"] = float64(sv.Queries)
		if isCampaign(w) {
			// Like the other counts, of the first round alone.
			v["serve.queries"] = 0
			for _, rep := range un.first {
				v["serve.queries"] += float64(rep.serve.Queries)
			}
		}
		v["serve.mean_latency_ms"] = float64(sv.MeanLatency) / 1e6
		v["serve.avg_batch"] = ratio(float64(sv.Served), float64(sv.Batches))
		v["serve.batch_fill"] = v["serve.avg_batch"] / float64(e.sz.BatchSize)
		v["serve.retries"], v["serve.failed"] = float64(sv.Retries), float64(sv.Failed)
		v["nn.pool_reuse_rate"] = ratio(float64(un.pool.Reuses), float64(un.pool.Borrows))
		if h := histogram(reg, "serve_queue_wait_ns"); h.Count > 0 {
			v["serve.queue_wait_mean_ms"] = float64(h.Sum) / 1e6 / float64(h.Count)
			// The histogram's buckets are powers of four: the 99th
			// percentile is known only up to its bucket's upper bound.
			var cum int64
			for _, b := range h.Buckets {
				if cum += b.Count; float64(cum) >= 0.99*float64(h.Count) {
					v["serve.queue_wait_p99_le_ms"] = float64(b.Le) / 1e6
					break
				}
			}
		}
	}
	if !isCampaign(w) {
		v["serve.latency_p50_ms"], _ = percentile(un.latenciesMs, 0.50)
		if p99, ok := percentile(un.latenciesMs, 0.99); ok {
			v["serve.latency_p99_ms"] = p99
		}
		// The workers' time per query that neither the graph nor the
		// forward explains: queueing, batching, scheduling, reply.
		graph := hitRate*v["qgraph.hit_ns"] + (1-hitRate)*v["qgraph.build_ns"]
		v["serve.overhead_us_per_query"] = (float64(e.sz.ServeWorkers)*wall*1e9/ops - graph - v["pmm.predict_batch8_ns_per_query"]) / 1e3
	}

	out := make(map[string]sample, len(perLayer))
	for _, d := range perLayer {
		out[d.Name] = single(v[d.Name], d.Unit)
	}
	return out
}

// histogram returns the named histogram of the traced pass's registry.
func histogram(reg *obs.Registry, name string) obs.Metric {
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return m
		}
	}
	return obs.Metric{}
}
