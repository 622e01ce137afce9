package pmm

import (
	"bytes"
	"testing"

	"github.com/repro/snowplow/internal/cfa"
	"github.com/repro/snowplow/internal/dataset"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
)

var (
	testKernel  = kernel.MustBuild("6.8")
	testAn      = cfa.New(testKernel)
	testBuilder = qgraph.NewBuilder(testKernel, testAn)
)

// smallDataset collects a compact dataset once for the learning tests.
func smallDataset(t testing.TB, nbases, mutPerBase int, seed uint64) *dataset.Dataset {
	t.Helper()
	g := prog.NewGenerator(testKernel.Target)
	r := rng.New(seed)
	bases := make([]*prog.Prog, nbases)
	for i := range bases {
		bases[i] = g.Generate(r, 3+r.Intn(3))
	}
	c := dataset.NewCollector(testKernel, testAn)
	c.MutationsPerBase = mutPerBase
	ds, _ := c.Collect(rng.New(seed+1), bases)
	return ds
}

func TestVocabBuildAndLookup(t *testing.T) {
	v := BuildVocab(testKernel)
	if v.Size() < 50 {
		t.Fatalf("vocab size %d too small", v.Size())
	}
	if v.ID("<unk>") != UnkID {
		t.Fatal("<unk> not at UnkID")
	}
	if v.ID("no-such-token-ever") != UnkID {
		t.Fatal("unknown token did not map to <unk>")
	}
	if v.ID("cmp") == UnkID || v.ID("rsi") == UnkID {
		t.Fatal("common assembly tokens missing from vocab")
	}
	ids := v.Encode([]string{"cmp", "bogus", "rsi"})
	if ids[1] != UnkID || ids[0] == UnkID || ids[2] == UnkID {
		t.Fatalf("Encode = %v", ids)
	}
}

func TestVocabSaveLoad(t *testing.T) {
	v := BuildVocab(testKernel)
	var buf bytes.Buffer
	if err := v.Save(&buf); err != nil {
		t.Fatal(err)
	}
	v2, err := LoadVocab(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Size() != v.Size() {
		t.Fatalf("size %d vs %d", v2.Size(), v.Size())
	}
	if v2.ID("cmp") != v.ID("cmp") {
		t.Fatal("ids changed across save/load")
	}
}

func TestForwardShapesAndDeterminism(t *testing.T) {
	ds := smallDataset(t, 4, 60, 100)
	if ds.Len() == 0 {
		t.Skip("no examples")
	}
	m := NewModel(rng.New(1), DefaultConfig(), BuildVocab(testKernel))
	ex := ds.Examples[0]
	g := testBuilder.Build(ex.Prog, ex.Traces, ex.Targets)
	out1 := m.Forward(g)
	out2 := m.Forward(g)
	if out1.Dim(0) != len(g.ArgVertices) || out1.Dim(1) != 1 {
		t.Fatalf("forward shape %v", out1.Shape)
	}
	sameProbs(t, "second forward, logit", out2.Data, out1.Data)
}

func TestPredictAlwaysReturnsSomething(t *testing.T) {
	ds := smallDataset(t, 4, 60, 200)
	if ds.Len() == 0 {
		t.Skip("no examples")
	}
	m := NewModel(rng.New(2), DefaultConfig(), BuildVocab(testKernel))
	m.Cfg.Threshold = 0.999999 // nothing crosses; fallback must kick in
	ex := ds.Examples[0]
	g := testBuilder.Build(ex.Prog, ex.Traces, ex.Targets)
	slots, probs := m.Predict(g)
	if len(slots) != 1 {
		t.Fatalf("fallback returned %d slots", len(slots))
	}
	if len(probs) != len(g.ArgVertices) {
		t.Fatalf("%d probs for %d args", len(probs), len(g.ArgVertices))
	}
	for _, p := range probs {
		if p < 0 || p > 1 {
			t.Fatalf("probability %v out of range", p)
		}
	}
}

// TestPMMLearnsAndBeatsRandomBaseline is the core reproduction of Table 1:
// after brief training PMM's selector metrics must far exceed Rand.8.
func TestPMMLearnsAndBeatsRandomBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	ds := smallDataset(t, 80, 200, 42)
	if ds.Len() < 50 {
		t.Fatalf("dataset too small: %d examples", ds.Len())
	}
	train, val, eval := ds.Split(0.8, 0.1)
	if eval.Len() == 0 {
		eval = val
	}
	tcfg := DefaultTrainConfig()
	tcfg.Epochs = 8
	m, report := Train(testBuilder, DefaultConfig(), tcfg, train, val)
	if len(report.EpochLoss) != tcfg.Epochs {
		t.Fatalf("loss history %v", report.EpochLoss)
	}
	if report.EpochLoss[len(report.EpochLoss)-1] >= report.EpochLoss[0] {
		t.Fatalf("loss did not decrease: %v", report.EpochLoss)
	}
	pmmMetrics := Evaluate(m, testBuilder, eval)
	randMetrics := EvaluateRandomK(rng.New(7), testBuilder, eval, 8)
	t.Logf("PMM:    %v", pmmMetrics)
	t.Logf("Rand.8: %v", randMetrics)
	if pmmMetrics.F1 < randMetrics.F1*1.5 {
		t.Fatalf("PMM F1 %.3f does not beat Rand.8 F1 %.3f by 1.5x", pmmMetrics.F1, randMetrics.F1)
	}
	if pmmMetrics.Jaccard <= randMetrics.Jaccard {
		t.Fatalf("PMM Jaccard %.3f <= Rand.8 %.3f", pmmMetrics.Jaccard, randMetrics.Jaccard)
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	ds := smallDataset(t, 4, 60, 300)
	if ds.Len() == 0 {
		t.Skip("no examples")
	}
	m := NewModel(rng.New(3), DefaultConfig(), BuildVocab(testKernel))
	m.Cfg.Threshold = 0.42
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Cfg.Threshold != 0.42 || m2.Cfg.Dim != m.Cfg.Dim {
		t.Fatalf("config lost: %+v", m2.Cfg)
	}
	ex := ds.Examples[0]
	g := testBuilder.Build(ex.Prog, ex.Traces, ex.Targets)
	a, b := m.Forward(g), m2.Forward(g)
	sameProbs(t, "after round trip, logit", b.Data, a.Data)
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("garbage\n"))); err == nil {
		t.Fatal("expected error")
	}
}

func TestFreezeAllowsConcurrentInference(t *testing.T) {
	ds := smallDataset(t, 4, 60, 400)
	if ds.Len() == 0 {
		t.Skip("no examples")
	}
	m := NewModel(rng.New(4), DefaultConfig(), BuildVocab(testKernel))
	m.Freeze()
	ex := ds.Examples[0]
	g := testBuilder.Build(ex.Prog, ex.Traces, ex.Targets)
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 20; i++ {
				m.Predict(g)
			}
		}()
	}
	for w := 0; w < 8; w++ {
		<-done
	}
}

func TestMetricsArithmetic(t *testing.T) {
	var mt Metrics
	pred := map[prog.GlobalSlot]bool{{Call: 0, Slot: 0}: true, {Call: 0, Slot: 1}: true}
	label := map[prog.GlobalSlot]bool{{Call: 0, Slot: 1}: true, {Call: 0, Slot: 2}: true}
	mt.accumulate(pred, label)
	mt.finish()
	if mt.Precision != 0.5 || mt.Recall != 0.5 {
		t.Fatalf("P/R = %v/%v", mt.Precision, mt.Recall)
	}
	if mt.F1 != 0.5 {
		t.Fatalf("F1 = %v", mt.F1)
	}
	if mt.Jaccard != 1.0/3.0 {
		t.Fatalf("Jaccard = %v", mt.Jaccard)
	}
}

func TestMetricsEmptySets(t *testing.T) {
	var mt Metrics
	mt.accumulate(map[prog.GlobalSlot]bool{}, map[prog.GlobalSlot]bool{})
	mt.finish()
	if mt.F1 != 0 || mt.Precision != 0 {
		t.Fatal("empty sets should score zero")
	}
}

func TestHashStringStableAndBounded(t *testing.T) {
	a := hashString("sendmsg$inet", 128)
	b := hashString("sendmsg$inet", 128)
	if a != b {
		t.Fatal("hash unstable")
	}
	for _, s := range []string{"a", "open", "ctl$kvm_3", ""} {
		h := hashString(s, 64)
		if h < 0 || h >= 64 {
			t.Fatalf("hash out of range: %d", h)
		}
	}
}

func BenchmarkForward(b *testing.B) {
	ds := smallDataset(b, 4, 60, 500)
	if ds.Len() == 0 {
		b.Skip("no examples")
	}
	m := NewModel(rng.New(5), DefaultConfig(), BuildVocab(testKernel))
	m.Freeze()
	ex := ds.Examples[0]
	g := testBuilder.Build(ex.Prog, ex.Traces, ex.Targets)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Forward(g)
	}
}
