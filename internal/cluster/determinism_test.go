// Cluster-grade determinism suite: a checkpointed campaign must resume
// (even resharded onto a different worker count) with identical final
// output, from any barrier. That every transport — in-process, W = 1, 2 and
// 4 workers, compressed, resumed — lands on the same literal digests is
// TestCampaignDigests (digests_test.go); the helpers both use live here.

package cluster

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/repro/snowplow/internal/cfa"
	"github.com/repro/snowplow/internal/fuzzer"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/obs"
	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/rng"
)

var (
	testKernel = kernel.MustBuild("6.8")
	testAn     = cfa.New(testKernel)
)

func seedProgs(n int, seed uint64) []*prog.Prog {
	g := prog.NewGenerator(testKernel.Target)
	r := rng.New(seed)
	out := make([]*prog.Prog, n)
	for i := range out {
		out[i] = g.Generate(r, 2+r.Intn(3))
	}
	return out
}

// testModelBytes serializes a fresh deterministic PMM model; workers load
// it into their own inference servers.
func testModelBytes(t *testing.T) []byte {
	t.Helper()
	m := pmm.NewModel(rng.New(77), pmm.DefaultConfig(), pmm.BuildVocab(testKernel))
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// baseConfig is the campaign the suite runs, here in single-host form.
func baseConfig(seed uint64, budget int64, vms int) fuzzer.Config {
	return fuzzer.Config{
		Mode:       fuzzer.ModeSyzkaller,
		Kernel:     testKernel,
		An:         testAn,
		Seed:       seed,
		Budget:     budget,
		VMs:        vms,
		SeedCorpus: seedProgs(10, seed+100),
	}
}

// runSingleHost runs the campaign over the in-process transport and
// reports it as a cluster.Result.
func runSingleHost(t *testing.T, cfg fuzzer.Config) *Result {
	t.Helper()
	jn := obs.NewJournal(0)
	cfg.Journal = jn
	f := fuzzer.New(cfg)
	stats, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	return &Result{
		Stats:         stats,
		CorpusDigest:  CorpusDigest(f.Corpus()),
		CoverDigest:   CoverDigest(f.Corpus()),
		JournalDigest: JournalDigest(jn.Events()),
		Events:        jn.Events(),
	}
}

// zeroWallClock clears the wall-clock stat fields excluded from the
// determinism guarantee, so full-struct comparisons work.
func zeroWallClock(s *fuzzer.Stats) *fuzzer.Stats {
	for i := range s.VMs {
		s.VMs[i].QueueWaitNs = 0
	}
	return s
}

func requireSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if want.CorpusDigest != got.CorpusDigest {
		t.Errorf("%s: corpus digest diverged", label)
	}
	if want.CoverDigest != got.CoverDigest {
		t.Errorf("%s: coverage digest diverged", label)
	}
	if want.JournalDigest != got.JournalDigest {
		t.Errorf("%s: journal digest diverged (%d vs %d events)", label, len(want.Events), len(got.Events))
	}
	if !reflect.DeepEqual(zeroWallClock(want.Stats), zeroWallClock(got.Stats)) {
		t.Errorf("%s: stats diverged:\nwant: edges=%d execs=%d corpus=%d queries=%d preds=%d crashes=%d series=%d\ngot:  edges=%d execs=%d corpus=%d queries=%d preds=%d crashes=%d series=%d",
			label,
			want.Stats.FinalEdges, want.Stats.Executions, want.Stats.CorpusSize, want.Stats.PMMQueries, want.Stats.PMMPredictions, len(want.Stats.Crashes), len(want.Stats.Series),
			got.Stats.FinalEdges, got.Stats.Executions, got.Stats.CorpusSize, got.Stats.PMMQueries, got.Stats.PMMPredictions, len(got.Stats.Crashes), len(got.Stats.Series))
	}
	if t.Failed() {
		t.Fatalf("%s: cluster output is not bit-identical to the single host", label)
	}
}

// TestClusterCheckpointResumeReshard kills a 2-worker campaign at a
// checkpoint barrier and resumes it on a 4-worker cluster: the resumed
// campaign must finish with output identical to the uninterrupted run.
func TestClusterCheckpointResumeReshard(t *testing.T) {
	cfg := baseConfig(43, 200_000, 4)
	spec := SpecFromConfig(withJournalFlag(cfg), nil)

	var checkpoints [][]byte
	full, err := RunLocal(Config{
		Spec:            spec,
		CheckpointEvery: 8,
		OnCheckpoint:    func(epoch int64, data []byte) { checkpoints = append(checkpoints, data) },
	}, 2, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(checkpoints) < 2 {
		t.Fatalf("campaign produced %d checkpoints, want at least 2", len(checkpoints))
	}

	// Resume from a mid-campaign checkpoint — the state a crash at that
	// barrier would leave behind — on a differently sized fleet.
	mid := checkpoints[len(checkpoints)/2]
	for _, workers := range []int{2, 4} {
		got, err := ResumeLocal(Config{Spec: spec}, mid, workers, WorkerOptions{})
		if err != nil {
			t.Fatalf("resume workers=%d: %v", workers, err)
		}
		requireSameResult(t, "resume-"+labelWorkers(workers), full, got)
	}
}

// TestClusterCheckpointEveryBarrier pins the checkpoint invariant at every
// single barrier: resuming from ANY checkpoint reproduces the final
// digests. This is the strongest form of the crash-consistency claim.
func TestClusterCheckpointEveryBarrier(t *testing.T) {
	cfg := baseConfig(44, 60_000, 2)
	spec := SpecFromConfig(withJournalFlag(cfg), nil)
	var checkpoints [][]byte
	full, err := RunLocal(Config{
		Spec:            spec,
		CheckpointEvery: 1,
		OnCheckpoint:    func(epoch int64, data []byte) { checkpoints = append(checkpoints, data) },
	}, 2, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(checkpoints) < 4 {
		t.Fatalf("campaign produced only %d checkpoints", len(checkpoints))
	}
	step := len(checkpoints)/4 + 1
	for i := 0; i < len(checkpoints); i += step {
		got, err := ResumeLocal(Config{Spec: spec}, checkpoints[i], 2, WorkerOptions{})
		if err != nil {
			t.Fatalf("resume from checkpoint %d: %v", i, err)
		}
		requireSameResult(t, "checkpoint-"+labelWorkers(i), full, got)
	}
}

func withJournalFlag(cfg fuzzer.Config) fuzzer.Config {
	cfg.Journal = obs.NewJournal(1) // sentinel: SpecFromConfig only checks non-nil
	return cfg
}

func labelWorkers(w int) string {
	return "workers=" + string(rune('0'+w))
}
