// TestCampaignDigests is the suite's absolute reference: literal corpus,
// coverage and journal digests plus a stats line for three campaign
// configurations, each asserted on every transport a campaign can run
// over. Every other determinism test in the tree compares one run against
// another; this one compares all of them against constants, so an engine
// change that moves every transport the same way still fails.

package cluster

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/repro/snowplow/internal/fuzzer"
	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/serve"
)

// snowplowTestConfig is baseConfig in Snowplow mode over a private server
// loaded from the model bytes the cluster spec ships, with default serving
// options: campaign queries wait for queue room and have no deadline, so
// no serving limit can move a digest.
func snowplowTestConfig(t *testing.T, seed uint64, budget int64) (fuzzer.Config, []byte, *serve.Server) {
	t.Helper()
	model := testModelBytes(t)
	m, err := pmm.Load(bytes.NewReader(model))
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServerOpts(m, qgraph.NewBuilder(testKernel, testAn), serve.Options{Workers: 2})
	cfg := baseConfig(seed, budget, 4)
	cfg.Mode = fuzzer.ModeSnowplow
	cfg.Server = srv
	return cfg, model, srv
}

// runPrivateFleet runs a loopback cluster the way real TCP workers join
// one: every worker dials in with no inference surface of its own and
// materializes a private model server from the spec, so a model push takes
// the per-worker two-phase path instead of racing tenants of one server.
func runPrivateFleet(t *testing.T, cfg Config, workers int) *Result {
	t.Helper()
	cfg.Workers = workers
	co, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			RunWorker(co.Addr(), WorkerOptions{}) // the coordinator's error is authoritative
		}()
	}
	res, err := co.Run()
	wg.Wait()
	if err != nil {
		t.Fatalf("private-serving fleet, workers=%d: %v", workers, err)
	}
	return res
}

// statsLine is the pinned summary of a campaign's counters.
func statsLine(r *Result) string {
	s := r.Stats
	return fmt.Sprintf("execs=%d edges=%d corpus=%d events=%d queries=%d preds=%d retrains=%d swaps=%d skipped=%d",
		s.Executions, s.FinalEdges, s.CorpusSize, len(r.Events), s.PMMQueries, s.PMMPredictions,
		s.ModelRetrains, s.ModelSwaps, s.ModelSwapsSkipped)
}

func TestCampaignDigests(t *testing.T) {
	rows := []struct {
		name  string
		build func(t *testing.T) (fuzzer.Config, []byte, func())
		// usesModel marks rows whose campaign depends on float arithmetic in
		// the model: their literals hold on amd64 only; elsewhere the row
		// still requires every transport to equal the in-process run.
		usesModel bool
		// compressAt lists the fleet sizes run with Compress: 6.
		compressAt []int
		// checkpointEvery is the barrier period of the 2-worker run whose
		// middle checkpoint the resume column restarts on 4 workers.
		checkpointEvery int64
		// private adds a fleet of private per-worker model servers.
		private bool

		corpus, cover, journal string // first 12 hex digits
		stats                  string
		// wire pins each compress6 column's Wire.{TxRawBytes, TxWireBytes,
		// RxRawBytes, Epochs}, by worker count. RxWireBytes and checkpoint
		// lengths are not pinned: every vmState a worker sends, and every
		// checkpoint, carries the wall-clock VMState.QueueWaitNs, so their
		// deflated size moves by a few bytes from run to run.
		wire map[int][4]int64
	}{
		{
			name: "syzkaller",
			build: func(*testing.T) (fuzzer.Config, []byte, func()) {
				return baseConfig(41, 200_000, 4), nil, func() {}
			},
			compressAt:      []int{1, 2, 4},
			checkpointEvery: 8,
			corpus:          "54acdf0ee02a", cover: "13a3110ce5c0", journal: "7e07fe521a87",
			stats: "execs=5391 edges=3482 corpus=635 events=968 queries=0 preds=0 retrains=0 swaps=0 skipped=0",
			wire: map[int][4]int64{
				1: {289125, 102010, 719797, 32},
				2: {577162, 203902, 720500, 32},
				4: {1153236, 407693, 721906, 32},
			},
		},
		{
			name: "snowplow",
			build: func(t *testing.T) (fuzzer.Config, []byte, func()) {
				cfg, model, srv := snowplowTestConfig(t, 42, 200_000)
				return cfg, model, srv.Close
			},
			usesModel:       true,
			compressAt:      []int{2},
			checkpointEvery: 8,
			corpus:          "25381a71aac5", cover: "184ab0eb6fcf", journal: "777a7b4cca95",
			stats: "execs=5691 edges=2340 corpus=371 events=541 queries=510 preds=510 retrains=0 swaps=0 skipped=0",
			wire:  map[int][4]int64{2: {780592, 501968, 1725302, 25}},
		},
		{
			name: "online",
			build: func(t *testing.T) (fuzzer.Config, []byte, func()) {
				cfg, model, srv := onlineTestConfig(t, 45, 150_000)
				return cfg, model, srv.Close
			},
			usesModel:       true,
			compressAt:      []int{2},
			checkpointEvery: 2,
			private:         true,
			corpus:          "f120fca1060d", cover: "0d55d8853bb0", journal: "0c7d192a6042",
			stats: "execs=3974 edges=2035 corpus=306 events=489 queries=453 preds=453 retrains=8 swaps=2 skipped=5",
			wire:  map[int][4]int64{2: {1588522, 1371924, 920192, 24}},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg, model, cleanup := row.build(t)
			defer cleanup()
			spec := SpecFromConfig(withJournalFlag(cfg), model)
			literal := !row.usesModel || runtime.GOARCH == "amd64"

			inproc := runSingleHost(t, cfg)
			check := func(column string, got *Result) {
				t.Helper()
				if literal {
					if d := got.CorpusDigest[:12]; d != row.corpus {
						t.Errorf("%s: corpus digest %s, want %s", column, d, row.corpus)
					}
					if d := got.CoverDigest[:12]; d != row.cover {
						t.Errorf("%s: cover digest %s, want %s", column, d, row.cover)
					}
					if d := got.JournalDigest[:12]; d != row.journal {
						t.Errorf("%s: journal digest %s, want %s", column, d, row.journal)
					}
					if s := statsLine(got); s != row.stats {
						t.Errorf("%s: stats\n got: %s\nwant: %s", column, s, row.stats)
					}
				}
				requireSameResult(t, column, inproc, got)
			}
			check("in-process", inproc)
			if row.usesModel && inproc.Stats.PMMQueries == 0 {
				t.Fatal("in-process campaign issued no PMM queries")
			}
			if cfg.Online != nil {
				requireSwapActivity(t, "in-process", inproc)
			}

			var checkpoints [][]byte
			for _, workers := range []int{1, 2, 4} {
				ccfg := Config{Spec: spec}
				if workers == 2 {
					// The 2-worker column doubles as the checkpointed run
					// the resume column restarts from.
					ccfg.CheckpointEvery = row.checkpointEvery
					ccfg.OnCheckpoint = func(_ int64, data []byte) { checkpoints = append(checkpoints, data) }
				}
				got, err := RunLocal(ccfg, workers, WorkerOptions{})
				if err != nil {
					t.Fatalf("loopback workers=%d: %v", workers, err)
				}
				check("loopback/"+labelWorkers(workers), got)
			}

			for _, workers := range row.compressAt {
				got, err := RunLocal(Config{Spec: spec, Compress: 6}, workers, WorkerOptions{})
				if err != nil {
					t.Fatalf("compressed workers=%d: %v", workers, err)
				}
				column := "compress6/" + labelWorkers(workers)
				check(column, got)
				if w := [4]int64{got.Wire.TxRawBytes, got.Wire.TxWireBytes, got.Wire.RxRawBytes, got.Wire.Epochs}; literal && w != row.wire[workers] {
					t.Errorf("%s: wire tx raw/deflated, rx raw, epochs = %v, want %v", column, w, row.wire[workers])
				}
				if got.Wire.CompressedWorkers != workers {
					t.Errorf("%s: %d workers compressed", column, got.Wire.CompressedWorkers)
				}
				if got.Wire.TxWireBytes >= got.Wire.TxRawBytes {
					t.Errorf("%s: compression never won on tx: %d wire vs %d raw",
						column, got.Wire.TxWireBytes, got.Wire.TxRawBytes)
				}
				if got.Wire.RxWireBytes >= got.Wire.RxRawBytes {
					t.Errorf("%s: compression never won on rx: %d wire vs %d raw",
						column, got.Wire.RxWireBytes, got.Wire.RxRawBytes)
				}
			}

			if len(checkpoints) < 2 {
				t.Fatalf("2-worker run produced %d checkpoints, want at least 2", len(checkpoints))
			}
			got, err := ResumeLocal(Config{Spec: spec}, checkpoints[len(checkpoints)/2], 4, WorkerOptions{})
			if err != nil {
				t.Fatalf("resume on 4 workers: %v", err)
			}
			check("resume-2to4", got)

			if row.private {
				check("private-serving/"+labelWorkers(2), runPrivateFleet(t, Config{Spec: spec}, 2))
			}
		})
	}
}
