package experiments

import (
	"bytes"
	"strings"
	"testing"

	"github.com/repro/snowplow/internal/fuzzer"
)

// tinyOpts keeps the suite tests fast; the real scales live in Quick/Full.
func tinyOpts() Options {
	return Options{
		Seed:             5,
		Bases:            50,
		MutationsPerBase: 120,
		TrainEpochs:      3,
		FuzzBudget:       300_000,
		LongBudget:       600_000,
		DirectedBudget:   120_000,
		Repeats:          2,
		Workers:          2,
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	d := o.withDefaults()
	q := Quick()
	if d.Bases != q.Bases || d.FuzzBudget != q.FuzzBudget || d.Repeats != q.Repeats {
		t.Fatalf("defaults not applied: %+v", d)
	}
	// Explicit values survive.
	o.Bases = 7
	if o.withDefaults().Bases != 7 {
		t.Fatal("explicit value overridden")
	}
}

func TestHarnessCachesKernels(t *testing.T) {
	h := NewHarness(tinyOpts())
	a := h.Kernel("6.8")
	b := h.Kernel("6.8")
	if a != b {
		t.Fatal("kernel not cached")
	}
	if h.Analysis("6.8") == nil {
		t.Fatal("analysis missing")
	}
}

func TestStatsExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("collects a dataset")
	}
	h := NewHarness(tinyOpts())
	res := Stats(h)
	if res.Bases == 0 || res.Examples == 0 {
		t.Fatalf("empty stats: %+v", res)
	}
	if res.AvgSlotsPerBase < 15 {
		t.Fatalf("avg slots %.1f too low for 3-6 call bases", res.AvgSlotsPerBase)
	}
	if res.AvgVertices < 50 {
		t.Fatalf("avg graph vertices %.0f", res.AvgVertices)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	for _, want := range []string{"§5.1", "paper: 2372", "mutations/1000"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("render missing %q:\n%s", want, buf.String())
		}
	}
}

func TestTable1Experiment(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	h := NewHarness(tinyOpts())
	res := Table1(h)
	if res.PMM.N == 0 || res.Rand8.N == 0 {
		t.Fatal("empty evaluation")
	}
	// Core shape: PMM beats the random baseline.
	if res.PMM.F1 <= res.Rand8.F1 {
		t.Fatalf("PMM F1 %.3f <= Rand8 %.3f even at tiny scale", res.PMM.F1, res.Rand8.F1)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "PMModel") || !strings.Contains(buf.String(), "Rand.8") {
		t.Fatalf("render malformed:\n%s", buf.String())
	}
}

func TestBandResampling(t *testing.T) {
	b := band([][]fuzzer.Point{
		{{Cost: 10, Edges: 5}, {Cost: 20, Edges: 9}},
		{{Cost: 10, Edges: 7}, {Cost: 20, Edges: 7}},
	}, 20, 10)
	if len(b.Cost) != 2 {
		t.Fatalf("grid %v", b.Cost)
	}
	if b.Min[1] != 7 || b.Max[1] != 9 || b.Mean[1] != 8 {
		t.Fatalf("band at cost 20: min %v mean %v max %v", b.Min[1], b.Mean[1], b.Max[1])
	}
}

func TestCoverageAt(t *testing.T) {
	series := []fuzzer.Point{{Cost: 10, Edges: 1}, {Cost: 30, Edges: 5}}
	cases := map[int64]int{5: 0, 10: 1, 29: 1, 30: 5, 100: 5}
	for c, want := range cases {
		if got := coverageAt(series, c); got != want {
			t.Fatalf("coverageAt(%d) = %d, want %d", c, got, want)
		}
	}
}

func TestSpeedupComputation(t *testing.T) {
	b := CurveBand{Cost: []int64{10, 20, 30, 40}, Mean: []float64{1, 5, 9, 10}}
	// Baseline final 5 reached by snowplow mean at cost 20 -> 40/20 = 2x.
	if got := speedup(b, 5, 40); got != 2 {
		t.Fatalf("speedup = %v, want 2", got)
	}
	// Never reached -> 1x.
	if got := speedup(b, 99, 40); got != 1 {
		t.Fatalf("unreachable speedup = %v, want 1", got)
	}
}

func TestAblationDeterminism(t *testing.T) {
	h := NewHarness(tinyOpts())
	res := AblationDeterminism(h)
	if res.Full > 0 {
		t.Fatalf("clean executor flipped coverage in %.0f%% of cases", res.Full*100)
	}
	if res.Ablated == 0 {
		t.Fatal("noise model produced no nondeterminism")
	}
}

func TestDirectedTargetsMix(t *testing.T) {
	h := NewHarness(tinyOpts())
	targets := directedTargets(h)
	if len(targets) < 10 {
		t.Fatalf("only %d targets", len(targets))
	}
	var shallow, deep int
	for _, tgt := range targets {
		if tgt.deep {
			deep++
		} else {
			shallow++
		}
	}
	if shallow < 4 || deep < 4 {
		t.Fatalf("target mix %d shallow / %d deep", shallow, deep)
	}
}

// TestTable5Runs drives the directed-fuzzing comparison end to end: both
// arms must reach a target. The SyzDirect arm runs with no server, which
// used to reach the runner as a typed-nil one and panic on its first query.
func TestTable5Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model and runs two directed campaigns per target")
	}
	opts := tinyOpts()
	opts.Repeats = 1
	res := Table5(NewHarness(opts))
	if res.ReachedSyz == 0 || res.ReachedSnow == 0 {
		t.Fatalf("targets reached: SyzDirect %d, Snowplow-D %d; want both > 0", res.ReachedSyz, res.ReachedSnow)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "targets reached") {
		t.Fatalf("render missing the reach line:\n%s", buf.String())
	}
}

func TestTruncate(t *testing.T) {
	if truncate("abc", 10) != "abc" {
		t.Fatal("short string truncated")
	}
	if got := truncate("abcdefghij", 5); len(got) > 7 { // 4 bytes + ellipsis rune
		t.Fatalf("truncate produced %q", got)
	}
}
