// Package snowplow's top-level benchmarks regenerate each table and figure
// of the paper's evaluation (see DESIGN.md's experiment index). Macro
// experiments run once per benchmark iteration; the key result values are
// attached as custom benchmark metrics so `go test -bench=.` doubles as the
// reproduction log. Artifacts (kernel, dataset, trained model) are shared
// across benchmarks through one lazily initialized harness. Pipeline
// throughput (§5.5's tests/s and queries/s) is timed by the benchmark module
// in benchmark/, not here.
package snowplow

import (
	"io"
	"sync"
	"testing"

	"github.com/repro/snowplow/internal/experiments"
)

var (
	benchOnce    sync.Once
	benchHarness *experiments.Harness
)

// harness returns the shared experiment harness at "quick" scale, with a
// reduced long-campaign budget so the full benchmark suite stays in the
// minutes range.
func harness() *experiments.Harness {
	benchOnce.Do(func() {
		opts := experiments.Quick()
		benchHarness = experiments.NewHarness(opts)
		benchHarness.Log = io.Discard
	})
	return benchHarness
}

// BenchmarkDatasetStats regenerates the §5.1 dataset statistics (arguments
// per test, graph sizes, successful-mutation rate).
func BenchmarkDatasetStats(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		res := experiments.Stats(h)
		b.ReportMetric(res.AvgSlotsPerBase, "args/test")
		b.ReportMetric(res.SuccessPerThousand, "successful/1000")
		b.ReportMetric(res.AvgVertices, "graph-vertices")
		b.ReportMetric(res.AvgEdges, "graph-edges")
	}
}

// BenchmarkTable1PMMAccuracy regenerates Table 1: PMM vs Rand.8 selector
// metrics on the held-out evaluation split.
func BenchmarkTable1PMMAccuracy(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		res := experiments.Table1(h)
		b.ReportMetric(res.PMM.F1*100, "PMM-F1-%")
		b.ReportMetric(res.Rand8.F1*100, "Rand8-F1-%")
		b.ReportMetric(res.F1Ratio, "F1-ratio(paper:2.8)")
		b.ReportMetric(res.JaccardRatio, "Jaccard-ratio(paper:3.8)")
	}
}

// BenchmarkFig6Coverage regenerates Figure 6a-d: repeated side-by-side
// coverage runs on kernels 6.8/6.9/6.10 with improvement and speedup.
func BenchmarkFig6Coverage(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig6(h)
		for _, v := range res.Versions {
			b.ReportMetric(v.ImprovementPct, "improv-%-"+v.Version)
			b.ReportMetric(v.Speedup, "speedup-"+v.Version)
		}
	}
}

// benchCampaign caches the Table-2/3/4 campaign (it is the most expensive
// experiment; three benchmarks report different views of it).
var (
	campaignOnce sync.Once
	campaignRes  experiments.CampaignResult
)

func campaign(b *testing.B) experiments.CampaignResult {
	b.Helper()
	campaignOnce.Do(func() {
		campaignRes = experiments.Campaign(harness(), "6.8")
	})
	return campaignRes
}

// BenchmarkTable2Crashes regenerates Table 2: new vs known crashes found by
// each system in the long campaign.
func BenchmarkTable2Crashes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := campaign(b)
		b.ReportMetric(float64(res.SnowplowNewTotal), "snowplow-new")
		b.ReportMetric(float64(res.SyzkallerNewTotal), "syzkaller-new")
	}
}

// BenchmarkTable3Triage regenerates Table 3: triage of the new crashes by
// manifestation with reproducibility.
func BenchmarkTable3Triage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := campaign(b)
		total := res.ReproducibleCount + res.NoReproCount
		b.ReportMetric(float64(res.ReproducibleCount), "with-repro")
		b.ReportMetric(float64(res.NoReproCount), "no-repro")
		if total > 0 {
			b.ReportMetric(100*float64(res.ReproducibleCount)/float64(total), "repro-%(paper:66)")
		}
	}
}

// BenchmarkTable4Bugs regenerates Table 4: how many of the seven diagnosed
// named bugs the campaign rediscovered.
func BenchmarkTable4Bugs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := campaign(b)
		found := 0
		for _, bug := range res.NamedBugs {
			if bug.Found {
				found++
			}
		}
		b.ReportMetric(float64(found), "named-bugs-found/7")
	}
}

// BenchmarkTable5Directed regenerates Table 5: directed fuzzing time-to-
// target, SyzDirect vs Snowplow-D.
func BenchmarkTable5Directed(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		res := experiments.Table5(h)
		b.ReportMetric(float64(res.ReachedSyz), "syzdirect-reached")
		b.ReportMetric(float64(res.ReachedSnow), "snowplowD-reached")
		b.ReportMetric(float64(res.ExtraTargets), "extra-targets(paper:2)")
		b.ReportMetric(res.SubtotalSpeedup, "speedup(paper:8.5)")
	}
}

// BenchmarkAblationSwitchEdges measures the representation ablation:
// retraining without kernel-user context-switch edges.
func BenchmarkAblationSwitchEdges(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		res := experiments.AblationSwitchEdges(h)
		b.ReportMetric(res.Full*100, "full-F1-%")
		b.ReportMetric(res.Ablated*100, "ablated-F1-%")
	}
}

// BenchmarkAblationTargetNoise measures §3.1 design option (a) vs (c):
// exact vs noisy target sets.
func BenchmarkAblationTargetNoise(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		res := experiments.AblationTargetNoise(h)
		b.ReportMetric(res.Full*100, "noisy-F1-%")
		b.ReportMetric(res.Ablated*100, "exact-F1-%")
	}
}

// BenchmarkAblationPopularityCap measures §3.1's popular-block capping:
// retraining on an uncapped dataset.
func BenchmarkAblationPopularityCap(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		res := experiments.AblationPopularityCap(h)
		b.ReportMetric(res.Full*100, "capped-F1-%")
		b.ReportMetric(res.Ablated*100, "uncapped-F1-%")
	}
}

// BenchmarkAblationNoise measures the determinism engineering of §3.1: the
// coverage-flip rate with and without the noise model.
func BenchmarkAblationNoise(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		res := experiments.AblationDeterminism(h)
		b.ReportMetric(res.Full*100, "clean-flip-%")
		b.ReportMetric(res.Ablated*100, "noisy-flip-%")
	}
}

// BenchmarkAblationFallback sweeps the Snowplow random-fallback probability.
func BenchmarkAblationFallback(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		sweep := experiments.AblationFallbackSweep(h)
		for j, p := range sweep.Probs {
			b.ReportMetric(float64(sweep.Edges[j]), "edges@p="+fmtProb(p))
		}
	}
}

// BenchmarkAblationSyncInference compares wall-clock fuzzing throughput of
// the asynchronous integration against a synchronous-inference ablation.
func BenchmarkAblationSyncInference(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		res := experiments.AblationSyncInference(h)
		b.ReportMetric(res.AsyncTPS, "async-tests/s")
		b.ReportMetric(res.SyncTPS, "sync-tests/s")
	}
}

func fmtProb(p float64) string {
	switch {
	case p < 0.075:
		return "0.05"
	case p < 0.2:
		return "0.1"
	case p < 0.45:
		return "0.3"
	case p < 0.75:
		return "0.6"
	default:
		return "0.9"
	}
}
