package pmm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"github.com/repro/snowplow/internal/nn"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
)

// TestTrainedCheckpointPinned pins the trained bits themselves, not just
// their equality across knobs: the SHA-256 of the saved checkpoint and the
// full TrainReport of trainAtWorkers, with the nn assembly kernels on and
// off, at 1 and 4 data-parallel workers. The literals were taken before the
// MatMul backward was vectorised; any kernel change that moves a single
// trained bit — summation order, an FMA contraction, a skipped term — fails
// here.
func TestTrainedCheckpointPinned(t *testing.T) {
	const wantSHA = "d56feb9944fb7acbe4217a151acbbc6a2c038899cc990c81e5bf9f190090c908"
	wantReport := TrainReport{
		EpochLoss: []float64{0.6547443220703021, 0.35685542961252015},
		ValF1:     []float64{0, 0},
		Threshold: 0.3,
	}
	for _, avx := range []bool{true, false} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("avx=%v/workers=%d", avx, workers), func(t *testing.T) {
				prev := nn.SetAVX(avx)
				defer nn.SetAVX(prev)
				ckpt, report := trainAtWorkers(t, workers)
				sum := sha256.Sum256(ckpt)
				if got := hex.EncodeToString(sum[:]); got != wantSHA {
					t.Errorf("checkpoint SHA-256 = %s, want %s", got, wantSHA)
				}
				if !reflect.DeepEqual(report, wantReport) {
					t.Errorf("TrainReport = %#v\nwant %#v", report, wantReport)
				}
			})
		}
	}
}

// TestThresholdSweepMatchesPredict pins the stored-probability evaluation
// that lets training forward its validation split once per epoch: at every
// grid threshold, metricsAt over one predictProbs pass must equal a fresh
// Predict per example at that threshold, field by field.
func TestThresholdSweepMatchesPredict(t *testing.T) {
	ds := smallDataset(t, 12, 80, 4242)
	c := CompileDataset(testBuilder, ds, 1)
	// An untrained model: its probabilities straddle the whole grid.
	m := NewModel(rng.New(5), DefaultConfig(), BuildVocab(testKernel))
	frozen := newEvalShadow(m)
	probs := predictProbs(frozen, c.examples, 2)
	distinct := map[float64]bool{}
	for _, th := range thresholdGrid {
		got := metricsAt(c.examples, probs, th)
		frozen.Cfg.Threshold = th
		var want Metrics
		for _, ex := range c.examples {
			pred, _ := frozen.Predict(ex.g)
			predSet := map[prog.GlobalSlot]bool{}
			for _, s := range pred {
				predSet[s] = true
			}
			want.accumulate(predSet, labelSet(ex))
		}
		want.finish()
		if got != want {
			t.Fatalf("threshold %v: stored-probability metrics %+v, fresh Predict %+v", th, got, want)
		}
		distinct[got.Precision] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("every grid threshold scored the same precision; the sweep is not exercised")
	}
}

// TestEvalShadowFollowsTraining pins the eval shadow's re-snapshot: the
// shadow aliases the master's weights, but its fused forward reads
// transposed-weight caches and a block memo taken from them, which every
// optimizer step leaves stale. Over three epochs of minibatch steps, each
// epoch's validation probabilities must equal, bit for bit, the TrainOps
// forward on the master's weights at that epoch.
func TestEvalShadowFollowsTraining(t *testing.T) {
	tcfg := DefaultTrainConfig()
	tcfg.Batch = 8
	train := CompileDataset(testBuilder, smallDataset(t, 12, 80, 4242), tcfg.PosWeight)
	val := CompileDataset(testBuilder, smallDataset(t, 4, 60, 700), 1)
	if val.Len() < 5 {
		t.Fatalf("only %d validation examples: pick another seed", val.Len())
	}
	valGraphs := make([]*qgraph.Graph, val.Len())
	for i, ex := range val.examples {
		valGraphs[i] = ex.g
	}
	m := NewModel(rng.New(6), DefaultConfig(), BuildVocab(testKernel))
	opt := nn.NewAdam(m.ParamList(), tcfg.LR)
	trainer := newMiniTrainer(m, tcfg, newTrainInstruments(nil))
	shadow := newEvalShadow(m)
	var live []compiled
	for _, ex := range train.examples {
		if len(ex.g.ArgVertices) > 0 {
			live = append(live, ex)
		}
	}
	for epoch := 0; epoch < 3; epoch++ {
		for start := 0; start < len(live); start += tcfg.batch() {
			trainer.step(opt, tcfg, live[start:min(start+tcfg.batch(), len(live))])
		}
		got := validate(shadow, val.examples, 2)
		want := referenceProbs(t, m, valGraphs)
		for i := range want {
			if j := bitDiff(got[i], want[i]); j >= 0 {
				t.Fatalf("epoch %d example %d prob %d: shadow %v, master's TrainOps forward %v", epoch, i, j, got[i][j], want[i][j])
			}
		}
		if shadow.BlockMemoStats().Entries == 0 {
			t.Fatalf("epoch %d: the shadow's forward stored nothing in its memo", epoch)
		}
	}
}
