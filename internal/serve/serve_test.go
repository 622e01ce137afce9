package serve

import (
	"sync"
	"testing"

	"github.com/repro/snowplow/internal/cfa"
	"github.com/repro/snowplow/internal/exec"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/trace"
)

var (
	testKernel = kernel.MustBuild("6.8")
	testAn     = cfa.New(testKernel)
)

func newTestServer(t testing.TB, workers int) *Server {
	t.Helper()
	m := pmm.NewModel(rng.New(1), pmm.DefaultConfig(), pmm.BuildVocab(testKernel))
	return NewServer(m, qgraph.NewBuilder(testKernel, testAn), workers)
}

func testQuery(t testing.TB) Query {
	t.Helper()
	p := prog.MustParse(testKernel.Target, "r0 = open(\"./file0\", 0x42, 0x1ff)\nread(r0, &b\"00ff\", 0x2)\n")
	res, err := exec.New(testKernel).Run(p)
	if err != nil {
		t.Fatal(err)
	}
	covered := trace.NewBlockSet(trace.BlocksOf(res))
	alts := testAn.Frontier(covered)
	var targets []kernel.BlockID
	for i, alt := range alts {
		if i >= 4 {
			break
		}
		targets = append(targets, alt.Entry)
	}
	return Query{Prog: p, Traces: res.CallTraces, Targets: targets}
}

func TestInferSync(t *testing.T) {
	s := newTestServer(t, 2)
	defer s.Close()
	q := testQuery(t)
	pred, err := s.Infer(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(pred.Slots) == 0 {
		t.Fatal("no slots predicted")
	}
	if len(pred.Probs) != q.Prog.NumSlots() {
		t.Fatalf("%d probs for %d slots", len(pred.Probs), q.Prog.NumSlots())
	}
	if pred.Latency <= 0 {
		t.Fatal("no latency recorded")
	}
}

func TestInferAsync(t *testing.T) {
	s := newTestServer(t, 2)
	defer s.Close()
	q := testQuery(t)
	var chans []<-chan Prediction
	for i := 0; i < 10; i++ {
		ch, err := s.InferAsync(q)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for i, ch := range chans {
		pred := <-ch
		if len(pred.Slots) == 0 {
			t.Fatalf("query %d: empty prediction", i)
		}
	}
	st := s.Stats()
	if st.Served != 10 {
		t.Fatalf("served %d", st.Served)
	}
}

func TestConcurrentClients(t *testing.T) {
	s := newTestServer(t, 4)
	defer s.Close()
	q := testQuery(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := s.Infer(q); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Served != 64 {
		t.Fatalf("served %d, want 64", st.Served)
	}
	if st.Throughput <= 0 || st.MeanLatency <= 0 {
		t.Fatalf("stats not tracked: %+v", st)
	}
}

func TestCloseRejectsNewQueries(t *testing.T) {
	s := newTestServer(t, 1)
	s.Close()
	if _, err := s.Infer(testQuery(t)); err == nil {
		t.Fatal("infer after close succeeded")
	}
	if _, err := s.InferAsync(testQuery(t)); err == nil {
		t.Fatal("async infer after close succeeded")
	}
	if s.Stats().Rejected != 2 {
		t.Fatalf("rejected = %d", s.Stats().Rejected)
	}
	s.Close() // double close is safe
}

func TestPredictionsMatchDirectModel(t *testing.T) {
	m := pmm.NewModel(rng.New(1), pmm.DefaultConfig(), pmm.BuildVocab(testKernel))
	b := qgraph.NewBuilder(testKernel, testAn)
	q := testQuery(t)
	g := b.Build(q.Prog, q.Traces, q.Targets)
	m.Freeze()
	directSlots, directProbs := m.Predict(g)

	s := NewServer(m, b, 2)
	defer s.Close()
	pred, err := s.Infer(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(pred.Slots) != len(directSlots) {
		t.Fatalf("served %d slots, direct %d", len(pred.Slots), len(directSlots))
	}
	for i := range directProbs {
		if pred.Probs[i] != directProbs[i] {
			t.Fatalf("prob %d differs", i)
		}
	}
}

func BenchmarkInference(b *testing.B) {
	s := newTestServer(b, 4)
	defer s.Close()
	q := testQuery(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Infer(q); err != nil {
			b.Fatal(err)
		}
	}
}

// TestServerKeepsWarmBlockMemo: a model that was frozen and forwarded before
// a server takes it keeps its block memo, as a benchmark that warms the
// model through direct predictions relies on. Preparing an already-frozen
// model for serving must not retake its snapshot.
func TestServerKeepsWarmBlockMemo(t *testing.T) {
	m := pmm.NewModel(rng.New(1), pmm.DefaultConfig(), pmm.BuildVocab(testKernel))
	m.Freeze()
	b := qgraph.NewBuilder(testKernel, testAn)
	q := testQuery(t)
	m.Predict(b.Build(q.Prog, q.Traces, q.Targets))
	warm := m.BlockMemoStats()
	if warm.Entries == 0 {
		t.Fatal("the warm-up forward stored nothing in the memo")
	}
	s := NewServerOpts(m, b, Options{Workers: 1})
	defer s.Close()
	if got := s.Model().BlockMemoStats(); got != warm {
		t.Fatalf("memo after NewServerOpts %+v, warm %+v", got, warm)
	}
	if _, err := s.Infer(q); err != nil {
		t.Fatal(err)
	}
	if got := s.Model().BlockMemoStats(); got.Entries != warm.Entries || got.Misses != warm.Misses {
		t.Fatalf("the served query re-encoded its blocks: %+v, warm %+v", got, warm)
	}
}
