// Controller unit tests: schedule gating, version bookkeeping, and the
// determinism contract — the same (seed, version, bases) must produce a
// byte-identical swap, whether kicked off fresh or resumed from a
// checkpoint's pending-retrain record.

package online

import (
	"bytes"
	"testing"

	"github.com/repro/snowplow/internal/cfa"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/rng"
)

var (
	testKernel = kernel.MustBuild("6.8")
	testAn     = cfa.New(testKernel)
)

func testModel(seed uint64) *pmm.Model {
	m := pmm.NewModel(rng.New(seed), pmm.DefaultConfig(), pmm.BuildVocab(testKernel))
	m.Freeze()
	return m
}

func testBases(n int, seed uint64) []*prog.Prog {
	g := prog.NewGenerator(testKernel.Target)
	r := rng.New(seed)
	out := make([]*prog.Prog, n)
	for i := range out {
		out[i] = g.Generate(r, 2+r.Intn(3))
	}
	return out
}

// fastParams keeps retrains cheap: tiny harvest, one training epoch.
func fastParams(seed uint64) Params {
	return Params{
		Config: Config{
			Every:            4,
			Lag:              2,
			MinCorpus:        3,
			MutationsPerBase: 4,
			TrainEpochs:      1,
			TrainBatch:       8,
		},
		Kernel:  testKernel,
		An:      testAn,
		Seed:    seed,
		Current: testModel(seed + 1000),
	}
}

func TestConfigNormalizedDefaults(t *testing.T) {
	c := Config{}.Normalized()
	want := Config{Every: 8, Lag: 2, MinCorpus: 8, MutationsPerBase: 24, TrainEpochs: 4, TrainBatch: 8}
	if c != want {
		t.Fatalf("Normalized() = %+v, want %+v", c, want)
	}
}

func TestScheduleGating(t *testing.T) {
	ctl, err := New(fastParams(11))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		epoch  int64
		corpus int
		want   bool
	}{
		{0, 10, false},  // epoch 0 is never a kickoff
		{3, 10, false},  // not a multiple of Every
		{4, 2, false},   // corpus below MinCorpus
		{4, 3, true},    // first kickoff point
		{8, 10, true},   // any later multiple
		{12, 10, true},  //
		{-4, 10, false}, // defensive: negative epochs
	} {
		if got := ctl.ShouldKickoff(tc.epoch, tc.corpus); got != tc.want {
			t.Errorf("ShouldKickoff(%d, %d) = %v, want %v", tc.epoch, tc.corpus, got, tc.want)
		}
	}

	bases := testBases(4, 21)
	if v := ctl.Kickoff(4, bases); v != 1 {
		t.Fatalf("first kickoff version = %d, want 1", v)
	}
	if ctl.ShouldKickoff(8, 10) {
		t.Fatal("kickoff allowed while a retrain is pending")
	}
	if v, kick, n, ok := ctl.Pending(); !ok || v != 1 || kick != 4 || n != len(bases) {
		t.Fatalf("Pending() = (%d, %d, %d, %v), want (1, 4, %d, true)", v, kick, n, ok, len(bases))
	}
	if sw := ctl.SwapDue(5); sw != nil {
		t.Fatal("swap due before Kickoff+Lag")
	}
	sw := ctl.SwapDue(6)
	if sw == nil {
		t.Fatal("no swap at the apply barrier")
	}
	if sw.Version != 1 || sw.Kickoff != 4 || sw.Bases != len(bases) {
		t.Fatalf("swap = v%d kickoff=%d bases=%d", sw.Version, sw.Kickoff, sw.Bases)
	}
	if ctl.Version() != 1 {
		t.Fatalf("applied version = %d after the swap barrier, want 1", ctl.Version())
	}
	if _, _, _, ok := ctl.Pending(); ok {
		t.Fatal("pending slot not cleared after SwapDue")
	}
	// The version is consumed whether or not the gate accepted.
	retrains, swaps, skips := ctl.Stats()
	if retrains != 1 || swaps+skips != 1 {
		t.Fatalf("stats = (%d, %d, %d), want one retrain resolved", retrains, swaps, skips)
	}
	if !ctl.ShouldKickoff(8, 10) {
		t.Fatal("kickoff blocked after the pending retrain resolved")
	}
	if v := ctl.Kickoff(8, bases); v != 2 {
		t.Fatalf("second kickoff version = %d, want 2", v)
	}
	ctl.Wait()
}

// TestRetrainDeterministic pins the core contract: two controllers with the
// same campaign seed, schedule and corpus snapshot produce byte-identical
// swaps — same gate decision, same digest, same serialized weights.
func TestRetrainDeterministic(t *testing.T) {
	bases := testBases(5, 33)
	var swaps []*Swap
	for i := 0; i < 2; i++ {
		ctl, err := New(fastParams(77))
		if err != nil {
			t.Fatal(err)
		}
		ctl.Kickoff(4, bases)
		sw := ctl.SwapDue(6)
		if sw == nil {
			t.Fatal("no swap produced")
		}
		swaps = append(swaps, sw)
	}
	a, b := swaps[0], swaps[1]
	if a.Accepted != b.Accepted || a.Digest != b.Digest || a.NewF1 != b.NewF1 || a.OldF1 != b.OldF1 {
		t.Fatalf("swaps diverged: %+v vs %+v", a, b)
	}
	if a.Examples != b.Examples || a.Detail() != b.Detail() {
		t.Fatalf("swap payloads diverged: %q vs %q", a.Detail(), b.Detail())
	}
	if !bytes.Equal(a.Bytes, b.Bytes) {
		t.Fatal("swap checkpoint bytes diverged between identical retrains")
	}
}

// TestResumePendingIdentical replays a checkpoint-restored in-flight
// retrain: ResumePending over the same publish-order prefix must yield the
// identical swap at the identical barrier, without double-counting the
// kickoff.
func TestResumePendingIdentical(t *testing.T) {
	bases := testBases(5, 44)

	orig, err := New(fastParams(88))
	if err != nil {
		t.Fatal(err)
	}
	orig.Kickoff(4, bases)
	want := orig.SwapDue(6)
	if want == nil {
		t.Fatal("no swap produced")
	}

	res, err := New(fastParams(88))
	if err != nil {
		t.Fatal(err)
	}
	res.SetApplied(0)
	res.RestoreCounts(1, 0, 0) // the kickoff was counted at its original barrier
	res.ResumePending(1, 4, bases)
	got := res.SwapDue(6)
	if got == nil {
		t.Fatal("resumed retrain produced no swap")
	}
	if got.Digest != want.Digest || got.Accepted != want.Accepted || got.Detail() != want.Detail() {
		t.Fatalf("resumed swap diverged: %q vs %q", got.Detail(), want.Detail())
	}
	if !bytes.Equal(got.Bytes, want.Bytes) {
		t.Fatal("resumed swap bytes diverged")
	}
	r1, s1, k1 := orig.Stats()
	r2, s2, k2 := res.Stats()
	if r1 != r2 || s1 != s2 || k1 != k2 {
		t.Fatalf("resumed stats (%d,%d,%d) != original (%d,%d,%d)", r2, s2, k2, r1, s1, k1)
	}
}

// TestQuantizedCampaignKeepsQuantizedForm: when the incumbent serves int8
// weights, swapped checkpoints are re-encoded with SaveQuantized so the
// canonical serving form never silently reverts to float.
func TestQuantizedCampaignKeepsQuantizedForm(t *testing.T) {
	p := fastParams(99)
	if err := p.Current.Quantize(); err != nil {
		t.Fatal(err)
	}
	ctl, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Kickoff(4, testBases(5, 55))
	sw := ctl.SwapDue(6)
	if sw == nil {
		t.Fatal("no swap produced")
	}
	if !sw.Accepted {
		t.Skipf("gate skipped v1 (f1 %.4f vs %.4f); quant form untestable on this seed", sw.NewF1, sw.OldF1)
	}
	if !sw.Model.Quantized() {
		t.Fatal("accepted swap on a quantized campaign is not quantized")
	}
}
