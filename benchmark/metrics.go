package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// metricDecl declares one metric as BENCHMARK.json lists it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen;
// per-layer metrics have none.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

// The contract's limits on a manifest.
const (
	maxWorkloads = 8
	maxEndToEnd  = 16
	maxPerLayer  = 128
	maxBound     = 0.25
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// workloads are the five fixed input sets. The whys are BENCHMARK.json's.
var workloads = []workloadDecl{
	{"fuzz_syz", "Syzkaller-mode campaigns on the sequential engine: the plain generate-mutate-execute-trace-corpus loop; bypasses qgraph, pmm, nn, serve and cluster, so a change there must read no change here."},
	{"fuzz_snow", "Snowplow-mode campaigns, 2 VMs on the epoch-barrier engine against a batching, caching server: every single-host layer at once."},
	{"serve_cold", "Closed loop of 2 clients x 8 queries in flight cycling a pool 4x the graph cache, so every query builds its graph: graph build, cache insert and forward dominate; bypasses the fuzz loop."},
	{"serve_hot", "Same closed loop drawing from a pre-warmed set that fits the graph cache, so every query hits: forward and scheduling dominate, graph build is bypassed."},
	{"cluster_snow", "The fuzz_snow campaigns through a coordinator and 2 loopback workers with compression and checkpoints: prices wire, merge and checkpoint on top of identical fuzzing; digests must equal single-host."},
}

// endToEnd are the metrics every workload reports with tracing off. An "op"
// is the workload's unit of work: one executed test for the campaign
// workloads, one answered query for the serve workloads.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"alloc_kb_per_op", "kB", "lower", 0.15},
}

// perLayer are the metrics of the traced run, named layer.metric where the
// layer is the package the number comes from. A layer the workload bypasses
// reports 0.
var perLayer = []metricDecl{
	// Set-up, moves setup_s.
	{Name: "kernel.build_s", Unit: "s", Better: "lower"},
	{Name: "cfa.new_s", Unit: "s", Better: "lower"},
	{Name: "dataset.collect_s", Unit: "s", Better: "lower"},
	{Name: "dataset.examples", Unit: "count", Better: "higher"},
	{Name: "pmm.train_s", Unit: "s", Better: "lower"},
	{Name: "pmm.train_examples_per_s", Unit: "1/s", Better: "higher"},
	{Name: "pmm.val_f1", Unit: "ratio", Better: "higher"},
	{Name: "bench.pool_s", Unit: "s", Better: "lower"},
	{Name: "bench.pool_queries", Unit: "count", Better: "higher"},
	// Fuzz loop, moves ops_per_s on fuzz_syz and about half of it on fuzz_snow.
	{Name: "prog.generate_ns", Unit: "ns", Better: "lower"},
	{Name: "mutation.mutate_ns", Unit: "ns", Better: "lower"},
	{Name: "exec.run_ns", Unit: "ns", Better: "lower"},
	{Name: "exec.blocks_per_run", Unit: "count", Better: "lower"},
	{Name: "trace.edges_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.blockset_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.merge_ns", Unit: "ns", Better: "lower"},
	{Name: "corpus.newedges_ns", Unit: "ns", Better: "lower"},
	{Name: "corpus.choose_ns", Unit: "ns", Better: "lower"},
	{Name: "corpus.add_ns", Unit: "ns", Better: "lower"},
	{Name: "fuzzer.execs", Unit: "count", Better: "higher"},
	{Name: "fuzzer.edges", Unit: "count", Better: "higher"},
	{Name: "fuzzer.corpus_size", Unit: "count", Better: "higher"},
	{Name: "fuzzer.loop_attributed_share", Unit: "ratio", Better: "higher"},
	{Name: "runtime.gc_per_kop", Unit: "count", Better: "lower"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower"},
	// Query path, moves ops_per_s on fuzz_snow, cluster_snow and serve_cold.
	{Name: "cfa.frontier_ns", Unit: "ns", Better: "lower"},
	{Name: "qgraph.build_ns", Unit: "ns", Better: "lower"},
	{Name: "qgraph.hit_ns", Unit: "ns", Better: "lower"},
	{Name: "qgraph.nodes_per_graph", Unit: "count", Better: "lower"},
	{Name: "qgraph.alloc_kb_per_build", Unit: "kB", Better: "lower"},
	{Name: "qgraph.hit_rate", Unit: "ratio", Better: "higher"},
	// Forward, moves ops_per_s on both serve workloads and fuzz_snow.
	{Name: "pmm.predict_ns", Unit: "ns", Better: "lower"},
	{Name: "pmm.predict_batch8_ns_per_query", Unit: "ns", Better: "lower"},
	{Name: "nn.fused_linear_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.attention_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.norm_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.matmul_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.softmax_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.kernel_share", Unit: "ratio", Better: "higher"},
	{Name: "nn.pool_reuse_rate", Unit: "ratio", Better: "higher"},
	// Serving, moves the latency tail first, then ops_per_s, on the serve workloads.
	{Name: "serve.queries", Unit: "count", Better: "higher"},
	{Name: "serve.latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.mean_latency_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_p99_le_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.avg_batch", Unit: "count", Better: "higher"},
	{Name: "serve.batch_fill", Unit: "ratio", Better: "higher"},
	{Name: "serve.overhead_us_per_query", Unit: "us", Better: "lower"},
	{Name: "serve.retries", Unit: "count", Better: "lower"},
	{Name: "serve.failed", Unit: "count", Better: "lower"},
	// Engine, moves ops_per_s and fuzzer.edges on fuzz_snow and cluster_snow.
	{Name: "fuzzer.epochs", Unit: "count", Better: "lower"},
	{Name: "fuzzer.queries", Unit: "count", Better: "higher"},
	{Name: "fuzzer.queries_per_s", Unit: "1/s", Better: "higher"},
	{Name: "fuzzer.barrier_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "fuzzer.barrier_wait_ms_per_epoch", Unit: "ms", Better: "lower"},
	{Name: "fuzzer.guided_exec_share", Unit: "ratio", Better: "higher"},
	{Name: "fuzzer.guided_edges_per_kexec", Unit: "count", Better: "higher"},
	{Name: "fuzzer.randarg_edges_per_kexec", Unit: "count", Better: "higher"},
	// Cluster, moves ops_per_s on cluster_snow only.
	{Name: "cluster.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cluster.wire_kb_per_epoch", Unit: "kB", Better: "lower"},
	{Name: "cluster.wire_tx_kb_per_epoch", Unit: "kB", Better: "lower"},
	{Name: "cluster.wire_rx_kb_per_epoch", Unit: "kB", Better: "lower"},
	{Name: "cluster.compress_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cluster.checkpoints", Unit: "count", Better: "lower"},
	{Name: "cluster.checkpoint_kb", Unit: "kB", Better: "lower"},
	{Name: "cluster.checkpoint_encode_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.checkpoint_decode_ms", Unit: "ms", Better: "lower"},
	// The traced run itself.
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.spans", Unit: "count", Better: "lower"},
}

// validate checks a manifest against the contract's limits on names, units,
// counts and bounds.
func (m manifest) validate() error {
	if n := len(m.Workloads); n < 2 || n > maxWorkloads {
		return fmt.Errorf("%d workloads, want 2 to %d", n, maxWorkloads)
	}
	if n := len(m.EndToEnd); n < 1 || n > maxEndToEnd {
		return fmt.Errorf("%d end-to-end metrics, want 1 to %d", n, maxEndToEnd)
	}
	if n := len(m.PerLayer); n < 1 || n > maxPerLayer {
		return fmt.Errorf("%d per-layer metrics, want 1 to %d", n, maxPerLayer)
	}
	seen := map[string]bool{}
	name := func(kind, s string) error {
		if !nameRE.MatchString(s) {
			return fmt.Errorf("%s name %q does not match %s", kind, s, nameRE)
		}
		if seen[s] {
			return fmt.Errorf("name %q used twice", s)
		}
		seen[s] = true
		return nil
	}
	for _, w := range m.Workloads {
		if err := name("workload", w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why must be 1 to 200 characters, is %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for i, d := range append(append([]metricDecl(nil), m.EndToEnd...), m.PerLayer...) {
		if err := name("metric", d.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(d.Unit) {
			return fmt.Errorf("metric %s: unit %q does not match %s", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			return fmt.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
		if e2e := i < len(m.EndToEnd); e2e && (d.Bound <= 0 || d.Bound > maxBound) {
			return fmt.Errorf("metric %s: bound %g outside (0, %g]", d.Name, d.Bound, maxBound)
		} else if !e2e && d.Bound != 0 {
			return fmt.Errorf("per-layer metric %s has a bound", d.Name)
		}
		if d.Name == "setup_s" && i < len(m.EndToEnd) && d.Unit == "s" && d.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		return fmt.Errorf("no end-to-end setup_s in s, lower")
	}
	return nil
}

// loadManifest reads BENCHMARK.json.
func loadManifest(path string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}
