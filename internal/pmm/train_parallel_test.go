package pmm

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/repro/snowplow/internal/nn"
	"github.com/repro/snowplow/internal/obs"
	"github.com/repro/snowplow/internal/rng"
)

// trainAtWorkers trains a fresh model on a small split with the given
// data-parallel width and returns the serialized checkpoint plus report.
func trainAtWorkers(t testing.TB, workers int) ([]byte, TrainReport) {
	t.Helper()
	ds := smallDataset(t, 12, 80, 4242)
	train, val, _ := ds.Split(0.7, 0.2)
	tcfg := DefaultTrainConfig()
	tcfg.Epochs = 2
	tcfg.Batch = 8
	tcfg.Workers = workers
	m, report := Train(testBuilder, DefaultConfig(), tcfg, train, val)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	return buf.Bytes(), report
}

// TestTrainWorkersBitIdentical is the tentpole guarantee: the data-parallel
// trainer must produce byte-identical checkpoints and identical reports at
// any worker count, because per-example gradients are computed on isolated
// replicas and reduced in example order. Run under -race this also
// exercises the worker pool for data races.
func TestTrainWorkersBitIdentical(t *testing.T) {
	ckpt1, report1 := trainAtWorkers(t, 1)
	ckpt4, report4 := trainAtWorkers(t, 4)
	if !reflect.DeepEqual(report1, report4) {
		t.Fatalf("TrainReport differs between 1 and 4 workers:\n  w1: %+v\n  w4: %+v", report1, report4)
	}
	if !bytes.Equal(ckpt1, ckpt4) {
		t.Fatalf("checkpoints differ between 1 and 4 workers (%d vs %d bytes)", len(ckpt1), len(ckpt4))
	}
}

// TestBatchOneMatchesSeedLoop pins the compatibility contract: Batch and
// Workers unset (the default config) must reproduce the original
// per-example trainer exactly — same checkpoint, same report — as Batch=1,
// Workers=1 spelled explicitly.
func TestBatchOneMatchesSeedLoop(t *testing.T) {
	ds := smallDataset(t, 12, 80, 4242)
	train, val, _ := ds.Split(0.7, 0.2)
	run := func(batch, workers int) ([]byte, TrainReport) {
		tcfg := DefaultTrainConfig()
		tcfg.Epochs = 2
		tcfg.Batch = batch
		tcfg.Workers = workers
		m, report := Train(testBuilder, DefaultConfig(), tcfg, train, val)
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("save: %v", err)
		}
		return buf.Bytes(), report
	}
	ckptDefault, reportDefault := run(0, 0)
	ckptExplicit, reportExplicit := run(1, 1)
	if !reflect.DeepEqual(reportDefault, reportExplicit) {
		t.Fatalf("default-config report differs from explicit batch=1/workers=1:\n  default: %+v\n  explicit: %+v", reportDefault, reportExplicit)
	}
	if !bytes.Equal(ckptDefault, ckptExplicit) {
		t.Fatalf("default-config checkpoint differs from explicit batch=1/workers=1")
	}
}

// TestSearchHyperparamsSortedStable checks the search returns results in
// descending validation F1 regardless of concurrency, and that every
// candidate kept its own seed offset.
func TestSearchHyperparamsSortedStable(t *testing.T) {
	ds := smallDataset(t, 8, 60, 777)
	train, val, _ := ds.Split(0.7, 0.2)
	candidates := []Config{DefaultConfig(), DefaultConfig(), DefaultConfig()}
	candidates[1].Dim = 16
	candidates[2].Layers = 1
	tcfg := DefaultTrainConfig()
	tcfg.Epochs = 1
	tcfg.Workers = 3
	results := SearchHyperparams(testBuilder, candidates, tcfg, train, val)
	if len(results) != len(candidates) {
		t.Fatalf("got %d results, want %d", len(results), len(candidates))
	}
	for i := 1; i < len(results); i++ {
		if results[i-1].ValF1 < results[i].ValF1 {
			t.Fatalf("results not sorted best-first: F1[%d]=%v < F1[%d]=%v", i-1, results[i-1].ValF1, i, results[i].ValF1)
		}
	}
	seeds := map[uint64]bool{}
	for _, r := range results {
		seeds[r.Train.Seed] = true
	}
	if len(seeds) != len(candidates) {
		t.Fatalf("candidates did not keep distinct seeds: %v", seeds)
	}
}

// TestTrainInstruments checks the train_* metrics fire when a registry is
// attached and stay silent (no panic) when it is nil.
func TestTrainInstruments(t *testing.T) {
	ds := smallDataset(t, 8, 60, 901)
	train, val, _ := ds.Split(0.7, 0.2)
	reg := obs.NewRegistry()
	tcfg := DefaultTrainConfig()
	tcfg.Epochs = 1
	tcfg.Batch = 4
	tcfg.Workers = 2
	tcfg.Metrics = reg
	Train(testBuilder, DefaultConfig(), tcfg, train, val)
	vals := reg.Values()
	if vals["train_epochs_total"] != 1 {
		t.Fatalf("train_epochs_total = %d, want 1", vals["train_epochs_total"])
	}
	if vals["train_examples_total"] == 0 {
		t.Fatalf("train_examples_total not incremented")
	}
	if vals["train_minibatches_total"] == 0 {
		t.Fatalf("train_minibatches_total not incremented")
	}
}

// BenchmarkTrainEpoch measures one supervised epoch over a pre-compiled
// split at four training workers.
func BenchmarkTrainEpoch(b *testing.B) {
	ds := smallDataset(b, 12, 120, 6001)
	train, val, _ := ds.Split(0.8, 0.1)
	tcfg := DefaultTrainConfig()
	tcfg.Batch = 8
	tcfg.Workers = 4
	tcfg.Epochs = 1
	ctrain := CompileDataset(testBuilder, train, tcfg.PosWeight)
	cval := CompileDataset(testBuilder, val, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TrainCompiled(testBuilder, DefaultConfig(), tcfg, ctrain, cval)
	}
}

// trainStepAllocs is the heap allocation count of one warm single-example
// trainer step: the forward's graph bookkeeping, the variadic Ops calls and
// one backward closure per tape node. Tape tensors, their headers, shapes,
// parent lists and index copies come from the arena, and the transposed
// weights from the per-step copies, so they add nothing.
const trainStepAllocs = 1841

// TestTrainStepAllocs pins the allocations of a warm single-example step
// (Batch=1, Workers=1, the default trainer).
func TestTrainStepAllocs(t *testing.T) {
	ds := smallDataset(t, 4, 40, 4242)
	c := CompileDataset(testBuilder, ds, 2)
	var batch []compiled
	for _, ex := range c.examples {
		if len(ex.g.ArgVertices) > 0 {
			batch = []compiled{ex}
			break
		}
	}
	if batch == nil {
		t.Fatal("no example with argument vertices")
	}
	m := NewModel(rng.New(1), DefaultConfig(), BuildVocab(testKernel))
	tcfg := DefaultTrainConfig()
	opt := nn.NewAdam(m.ParamList(), tcfg.LR)
	tr := newMiniTrainer(m, tcfg, newTrainInstruments(nil))
	tr.step(opt, tcfg, batch)
	got := testing.AllocsPerRun(20, func() { tr.step(opt, tcfg, batch) })
	t.Logf("warm single-example step: %.0f allocations", got)
	if got > trainStepAllocs {
		t.Fatalf("warm single-example step allocated %.0f times, want at most %d", got, trainStepAllocs)
	}
}
