// Command snowplow-bench regenerates the paper's evaluation tables and
// figures on the synthetic-kernel substrate.
//
// Usage:
//
//	snowplow-bench -experiment all
//	snowplow-bench -experiment fig6 -scale full
//	snowplow-bench -experiment table1,table5
//
// Experiments: stats, table1, fig6, table2 (includes tables 3 and 4),
// table5, perf, parallel, cluster, wire, micro, train, ablations, faults,
// timeseries, tenants, online, all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/repro/snowplow/internal/experiments"
	"github.com/repro/snowplow/internal/faultinject"
	"github.com/repro/snowplow/internal/nn"
)

func main() {
	var (
		which  = flag.String("experiment", "all", "comma-separated experiments: stats,table1,fig6,table2,table5,perf,parallel,cluster,wire,micro,train,ablations,faults,timeseries,tenants,online,all")
		scale  = flag.String("scale", "quick", "experiment scale: quick or full")
		seed   = flag.Uint64("seed", 1, "suite seed")
		quiet  = flag.Bool("quiet", false, "suppress progress logging")
		faults = flag.String("faults", "",
			"fault shape at rate 1.0 for the degraded-serving sweep, e.g. drop=0.4,transient=0.3,corrupt=0.2 (empty = default shape)")
		workers = flag.Int("workers", 0, "MatMul worker-pool size (0 = leave at 1)")
		vms     = flag.Int("vms", 0, "simulated-VM fleet size for fuzzing campaigns (0 = one VM)")
		batch   = flag.Int("batch", 0, "serving micro-batch limit for harness servers (0 = no batching)")
		jsonDir = flag.String("json", "", "directory for machine-readable BENCH_<experiment>.json results (empty = disabled)")
		sample  = flag.Duration("sample-interval", 0, "wall-clock metrics sampling period for the timeseries experiment (0 = default 250ms)")
		trainW  = flag.Int("train-workers", 0, "data-parallel PMM training width for harness training (0 = single-threaded)")
		collW   = flag.Int("collect-workers", 0, "harvest shard width for harness dataset collection (0 = single-threaded)")
	)
	flag.Parse()
	if *workers > 0 {
		nn.SetWorkers(*workers)
	}

	opts := experiments.Quick()
	if *scale == "full" {
		opts = experiments.Full()
	}
	opts.Seed = *seed
	opts.BatchSize = *batch
	opts.VMs = *vms
	opts.SampleInterval = *sample
	opts.TrainWorkers = *trainW
	opts.CollectWorkers = *collW
	if *faults != "" {
		fm, err := faultinject.ParseSpec(*faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, "snowplow-bench:", err)
			os.Exit(2)
		}
		if fm.Enabled() {
			opts.FaultModel = fm
		}
	}
	h := experiments.NewHarness(opts)
	if !*quiet {
		h.Log = os.Stderr
	}

	// emit writes one experiment's result struct as a machine-readable
	// artifact next to the rendered table (BENCH_<experiment>.json).
	emit := func(name string, v interface{}) {
		if *jsonDir == "" {
			return
		}
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "snowplow-bench:", err)
			os.Exit(1)
		}
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "snowplow-bench: encode", name+":", err)
			os.Exit(1)
		}
		path := filepath.Join(*jsonDir, "BENCH_"+name+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "snowplow-bench:", err)
			os.Exit(1)
		}
	}

	want := map[string]bool{}
	for _, name := range strings.Split(*which, ",") {
		want[strings.TrimSpace(name)] = true
	}
	all := want["all"]
	ran := 0
	start := time.Now()

	if all || want["stats"] {
		res := experiments.Stats(h)
		res.Render(os.Stdout)
		emit("stats", res)
		fmt.Println()
		ran++
	}
	if all || want["table1"] {
		res := experiments.Table1(h)
		res.Render(os.Stdout)
		emit("table1", res)
		fmt.Println()
		ran++
	}
	if all || want["fig6"] {
		res := experiments.Fig6(h)
		res.Render(os.Stdout)
		emit("fig6", res)
		fmt.Println()
		ran++
	}
	if all || want["table2"] || want["table3"] || want["table4"] {
		res := experiments.Campaign(h, "6.8")
		res.Render(os.Stdout)
		emit("table2", res)
		fmt.Println()
		ran++
	}
	if all || want["table5"] {
		res := experiments.Table5(h)
		res.Render(os.Stdout)
		emit("table5", res)
		fmt.Println()
		ran++
	}
	if all || want["perf"] {
		res := experiments.Perf(h)
		res.Render(os.Stdout)
		emit("perf", res)
		fmt.Println()
		ran++
	}
	if all || want["parallel"] {
		res := experiments.Parallel(h, nil)
		res.Render(os.Stdout)
		emit("parallel", res)
		fmt.Println()
		ran++
	}
	if all || want["cluster"] {
		res := experiments.Cluster(h, nil)
		res.Render(os.Stdout)
		emit("cluster", res)
		fmt.Println()
		ran++
	}
	if all || want["wire"] {
		res := experiments.Wire(h, nil)
		res.Render(os.Stdout)
		emit("wire", res)
		fmt.Println()
		ran++
	}
	if all || want["micro"] {
		res := experiments.Micro(h)
		res.Render(os.Stdout)
		emit("micro", res)
		fmt.Println()
		ran++
	}
	if all || want["train"] {
		res := experiments.Train(h, nil)
		res.Render(os.Stdout)
		emit("train", res)
		fmt.Println()
		ran++
	}
	if all || want["ablations"] {
		fmt.Println("== Ablations (DESIGN.md §5) ==")
		determinism := experiments.AblationDeterminism(h)
		determinism.Render(os.Stdout)
		switchEdges := experiments.AblationSwitchEdges(h)
		switchEdges.Render(os.Stdout)
		targetNoise := experiments.AblationTargetNoise(h)
		targetNoise.Render(os.Stdout)
		fallback := experiments.AblationFallbackSweep(h)
		fallback.Render(os.Stdout)
		emit("ablations", map[string]interface{}{
			"determinism": determinism,
			"switchEdges": switchEdges,
			"targetNoise": targetNoise,
			"fallback":    fallback,
		})
		fmt.Println()
		ran++
	}
	if all || want["faults"] {
		fmt.Println("== Degraded serving (fault-injected inference) ==")
		res := experiments.AblationFaultSweep(h)
		res.Render(os.Stdout)
		emit("faults", res)
		fmt.Println()
		ran++
	}
	if all || want["tenants"] {
		res := experiments.Tenants(h)
		res.Render(os.Stdout)
		emit("tenants", res)
		fmt.Println()
		ran++
	}
	if all || want["online"] {
		res := experiments.Online(h)
		res.Render(os.Stdout)
		emit("online", res)
		fmt.Println()
		ran++
	}
	if all || want["timeseries"] {
		res := experiments.Timeseries(h)
		res.Render(os.Stdout)
		emit("timeseries", res)
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "snowplow-bench: unknown experiment %q\n", *which)
		os.Exit(2)
	}
	fmt.Printf("completed %d experiment group(s) in %v\n", ran, time.Since(start).Round(time.Second))
}
