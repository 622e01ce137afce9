// Command snowplow-bench regenerates the paper's evaluation tables and
// figures on the synthetic-kernel substrate.
//
// Usage:
//
//	snowplow-bench -experiment all
//	snowplow-bench -experiment fig6 -scale full
//	snowplow-bench -experiment table1,table5
//
// Experiments, in the order all runs them: stats, table1, fig6, table2,
// table3, table4, table5, wire, ablations, faults, tenants, online, all.
// table2, table3 and table4 name one campaign, which renders all three
// tables. An unknown name exits 2 before any experiment runs. Pipeline
// throughput (§5.5) is timed by the benchmark module in benchmark/, not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/repro/snowplow/internal/experiments"
	"github.com/repro/snowplow/internal/faultinject"
	"github.com/repro/snowplow/internal/nn"
)

// result is what every experiment returns: a table it renders, encoded as
// its BENCH_<name>.json artifact.
type result interface{ Render(w io.Writer) }

// group is one experiment run: names select it on the command line, and the
// first also names its artifact.
type group struct {
	names []string
	run   func(h *experiments.Harness) result
}

// groups is the one list of experiments, in the order -experiment all runs
// them; the -experiment help string and the name check are built from it.
var groups = []group{
	{[]string{"stats"}, func(h *experiments.Harness) result { return experiments.Stats(h) }},
	{[]string{"table1"}, func(h *experiments.Harness) result { return experiments.Table1(h) }},
	{[]string{"fig6"}, func(h *experiments.Harness) result { return experiments.Fig6(h) }},
	{[]string{"table2", "table3", "table4"}, func(h *experiments.Harness) result { return experiments.Campaign(h, "6.8") }},
	{[]string{"table5"}, func(h *experiments.Harness) result { return experiments.Table5(h) }},
	{[]string{"wire"}, func(h *experiments.Harness) result { return experiments.Wire(h, nil) }},
	{[]string{"ablations"}, func(h *experiments.Harness) result {
		return ablations{experiments.AblationDeterminism(h), experiments.AblationSwitchEdges(h),
			experiments.AblationTargetNoise(h), experiments.AblationFallbackSweep(h)}
	}},
	{[]string{"faults"}, func(h *experiments.Harness) result { return faultSweep{experiments.AblationFaultSweep(h)} }},
	{[]string{"tenants"}, func(h *experiments.Harness) result { return experiments.Tenants(h) }},
	{[]string{"online"}, func(h *experiments.Harness) result { return experiments.Online(h) }},
}

// ablations is the ablation group: four results under one heading.
type ablations struct {
	Determinism experiments.AblationResult `json:"determinism"`
	SwitchEdges experiments.AblationResult `json:"switchEdges"`
	TargetNoise experiments.AblationResult `json:"targetNoise"`
	Fallback    experiments.FallbackSweep  `json:"fallback"`
}

func (a ablations) Render(w io.Writer) {
	fmt.Fprintln(w, "== Ablations (DESIGN.md §5) ==")
	a.Determinism.Render(w)
	a.SwitchEdges.Render(w)
	a.TargetNoise.Render(w)
	a.Fallback.Render(w)
}

// faultSweep heads the degraded-serving sweep's table.
type faultSweep struct{ experiments.FaultSweep }

func (f faultSweep) Render(w io.Writer) {
	fmt.Fprintln(w, "== Degraded serving (fault-injected inference) ==")
	f.FaultSweep.Render(w)
}

// experimentNames lists every name -experiment accepts.
func experimentNames() []string {
	var names []string
	for _, g := range groups {
		names = append(names, g.names...)
	}
	return append(names, "all")
}

// selectGroups resolves a comma-separated -experiment value to the groups it
// names, in run order. Every entry must be a known name; the first that is
// not is the error.
func selectGroups(spec string) ([]group, error) {
	want := map[string]bool{}
	for _, name := range experimentNames() {
		want[name] = false
	}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if _, ok := want[name]; !ok {
			return nil, fmt.Errorf("unknown experiment %q (want %s)", name, strings.Join(experimentNames(), ","))
		}
		want[name] = true
	}
	var sel []group
	for _, g := range groups {
		for _, n := range g.names {
			if want["all"] || want[n] {
				sel = append(sel, g)
				break
			}
		}
	}
	return sel, nil
}

func main() {
	var (
		which  = flag.String("experiment", "all", "comma-separated experiments: "+strings.Join(experimentNames(), ","))
		scale  = flag.String("scale", "quick", "experiment scale: quick or full")
		seed   = flag.Uint64("seed", 1, "suite seed")
		quiet  = flag.Bool("quiet", false, "suppress progress logging")
		faults = flag.String("faults", "",
			"fault shape at rate 1.0 for the degraded-serving sweep, e.g. drop=0.4,transient=0.3,corrupt=0.2 (empty = default shape)")
		workers = flag.Int("workers", 0, "worker-pool width of MatMul, PMM training and dataset collection (0 = leave at 1)")
		vms     = flag.Int("vms", 0, "simulated-VM fleet size for fuzzing campaigns (0 = one VM)")
		batch   = flag.Int("batch", 0, "serving micro-batch limit for harness servers (0 = no batching)")
		jsonDir = flag.String("json", "", "directory for machine-readable BENCH_<experiment>.json results (empty = disabled)")
	)
	flag.Parse()
	sel, err := selectGroups(*which)
	if err != nil {
		fmt.Fprintln(os.Stderr, "snowplow-bench:", err)
		os.Exit(2)
	}
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

	start := time.Now()
	for _, g := range sel {
		res := g.run(h)
		res.Render(os.Stdout)
		emit(g.names[0], res)
		fmt.Println()
	}
	fmt.Printf("completed %d experiment group(s) in %v\n", len(sel), time.Since(start).Round(time.Second))
}
