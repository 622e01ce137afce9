package fuzzer

import (
	"testing"

	"github.com/repro/snowplow/internal/cfa"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/serve"
)

var (
	testKernel = kernel.MustBuild("6.8")
	testAn     = cfa.New(testKernel)
)

func seedCorpus(n int, seed uint64) []*prog.Prog {
	g := prog.NewGenerator(testKernel.Target)
	r := rng.New(seed)
	out := make([]*prog.Prog, n)
	for i := range out {
		out[i] = g.Generate(r, 2+r.Intn(3))
	}
	return out
}

func baselineConfig(seed uint64, budget int64) Config {
	return Config{
		Mode:       ModeSyzkaller,
		Kernel:     testKernel,
		An:         testAn,
		Seed:       seed,
		Budget:     budget,
		SeedCorpus: seedCorpus(10, seed+100),
	}
}

func TestBaselineRunProducesCoverage(t *testing.T) {
	stats, err := New(baselineConfig(1, 200_000)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalEdges == 0 {
		t.Fatal("no edge coverage")
	}
	if stats.Executions == 0 {
		t.Fatal("no executions")
	}
	if stats.CorpusSize == 0 {
		t.Fatal("empty corpus")
	}
	if len(stats.Series) == 0 {
		t.Fatal("no time series")
	}
}

func TestSeriesMonotone(t *testing.T) {
	stats, err := New(baselineConfig(2, 200_000)).Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(stats.Series); i++ {
		if stats.Series[i].Cost < stats.Series[i-1].Cost {
			t.Fatalf("series cost not monotone at %d", i)
		}
		if stats.Series[i].Edges < stats.Series[i-1].Edges {
			t.Fatalf("series coverage decreased at %d", i)
		}
	}
	last := stats.Series[len(stats.Series)-1]
	if last.Edges != stats.FinalEdges {
		t.Fatalf("final series point %d != FinalEdges %d", last.Edges, stats.FinalEdges)
	}
}

func TestCoverageGrowsWithBudget(t *testing.T) {
	small, err := New(baselineConfig(3, 50_000)).Run()
	if err != nil {
		t.Fatal(err)
	}
	large, err := New(baselineConfig(3, 500_000)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if large.FinalEdges <= small.FinalEdges {
		t.Fatalf("coverage did not grow with budget: %d vs %d", small.FinalEdges, large.FinalEdges)
	}
}

func TestBaselineDeterministic(t *testing.T) {
	a, err := New(baselineConfig(4, 100_000)).Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(baselineConfig(4, 100_000)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalEdges != b.FinalEdges || a.Executions != b.Executions {
		t.Fatalf("baseline runs diverge: %d/%d vs %d/%d edges/execs",
			a.FinalEdges, a.Executions, b.FinalEdges, b.Executions)
	}
}

func TestCrashesFoundAndDeduplicated(t *testing.T) {
	stats, err := New(baselineConfig(5, 1_500_000)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Crashes) == 0 {
		t.Skip("no crashes at this budget/seed (acceptable for baseline)")
	}
	seen := map[string]bool{}
	for _, c := range stats.Crashes {
		if seen[c.Spec.Title] {
			t.Fatalf("duplicate crash %q", c.Spec.Title)
		}
		seen[c.Spec.Title] = true
		if c.ProgText == "" {
			t.Fatal("crash without program")
		}
	}
}

func newServer(t testing.TB) *serve.Server {
	t.Helper()
	m := pmm.NewModel(rng.New(9), pmm.DefaultConfig(), pmm.BuildVocab(testKernel))
	return serve.NewServer(m, qgraph.NewBuilder(testKernel, testAn), 2)
}

func TestSnowplowModeRuns(t *testing.T) {
	srv := newServer(t)
	defer srv.Close()
	cfg := baselineConfig(6, 200_000)
	cfg.Mode = ModeSnowplow
	cfg.Server = srv
	stats, err := New(cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalEdges == 0 {
		t.Fatal("no coverage in snowplow mode")
	}
	if stats.PMMQueries == 0 {
		t.Fatal("snowplow mode issued no PMM queries")
	}
}

func TestSnowplowRequiresServer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cfg := baselineConfig(7, 1000)
	cfg.Mode = ModeSnowplow
	New(cfg)
}

func TestModeString(t *testing.T) {
	if ModeSyzkaller.String() != "syzkaller" || ModeSnowplow.String() != "snowplow" {
		t.Fatal("mode names wrong")
	}
}

func TestBudgetRespected(t *testing.T) {
	budget := int64(30_000)
	f := New(baselineConfig(8, budget))
	stats, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The final cost may overshoot by at most one program's trace.
	last := stats.Series[len(stats.Series)-1]
	if last.Cost > budget*2 {
		t.Fatalf("budget wildly overshot: %d vs %d", last.Cost, budget)
	}
}

func BenchmarkFuzzLoopBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := New(baselineConfig(uint64(i), 50_000)).Run(); err != nil {
			b.Fatal(err)
		}
	}
}
