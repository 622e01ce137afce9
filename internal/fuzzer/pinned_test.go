package fuzzer

import (
	"fmt"
	"testing"

	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/serve"
)

// statsLine is the part of a campaign's Stats that TestSingleVMPinned pins
// besides the corpus and cover digests.
func statsLine(s *Stats) string {
	return fmt.Sprintf("execs=%d edges=%d corpus=%d crashes=%d queries=%d preds=%d cachehits=%d",
		s.Executions, s.FinalEdges, s.CorpusSize, len(s.Crashes), s.PMMQueries, s.PMMPredictions, s.PMMCacheHits)
}

// TestSingleVMPinned pins what a one-VM campaign finds, byte for byte: the
// corpus in publish order, the edge cover and the stats line of a
// Syzkaller campaign and of a synchronous-inference Snowplow campaign on a
// float model. A moved literal is a behaviour change of the single-VM
// engine.
func TestSingleVMPinned(t *testing.T) {
	cases := []struct {
		name                  string
		snowplow              bool
		wantCorpus, wantCover string
		wantStats             string
	}{
		{
			name:       "syzkaller",
			wantCorpus: "3be6e9d9d835365e23a3f716bf8323107fb26fce91250a131698acef329a14de",
			wantCover:  "e338b959913545269da0af78262215ca497248bc67215020e4f3c4cb38e4915c",
			wantStats:  "execs=4651 edges=3531 corpus=603 crashes=104 queries=0 preds=0 cachehits=0",
		},
		{
			name:       "snowplow-sync",
			snowplow:   true,
			wantCorpus: "3ae23e5334e166c4eda3e140ef160d28ab422dc79672c2cea4b8a0330afbe2d8",
			wantCover:  "e792b82e95c11a8676b76b33f4dac606c1bd61bbc47d7864c9da2b7b467cf888",
			wantStats:  "execs=4882 edges=978 corpus=165 crashes=30 queries=144 preds=144 cachehits=27",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := baselineConfig(61, 200_000)
			cfg.VMs = 1
			if c.snowplow {
				m := pmm.NewModel(rng.New(77), pmm.DefaultConfig(), pmm.BuildVocab(testKernel))
				srv := serve.NewServerOpts(m, qgraph.NewBuilder(testKernel, testAn).WithCache(256), serve.Options{Workers: 2, BatchSize: 4})
				defer srv.Close()
				cfg.Mode = ModeSnowplow
				cfg.Server = srv
				cfg.SyncInference = true
			}
			f := New(cfg)
			stats, err := f.Run()
			if err != nil {
				t.Fatal(err)
			}
			corp, cover := corpusCoverDigests(f.Corpus())
			if corp != c.wantCorpus || cover != c.wantCover {
				t.Errorf("digests corpus=%s cover=%s, pinned corpus=%s cover=%s", corp, cover, c.wantCorpus, c.wantCover)
			}
			if got := statsLine(stats); got != c.wantStats {
				t.Errorf("stats %q, pinned %q", got, c.wantStats)
			}
		})
	}
}
