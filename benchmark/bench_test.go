package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/repro/snowplow/internal/serve"
)

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "root", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "a", Parent: 0, Start: ms(10), End: ms(40)},
		{Name: "b", Parent: 0, Start: ms(30), End: ms(60)},  // overlaps a: the union covers 10..60
		{Name: "c", Parent: 0, Start: ms(90), End: ms(120)}, // runs past the parent: clipped to 90..100
		{Name: "a1", Parent: 1, Start: ms(10), End: ms(15)},
		{Name: "d", Parent: 0, Start: ms(35), End: ms(50)}, // inside the union already
	}
	want := []time.Duration{ms(40), ms(25), ms(30), ms(30), ms(5), ms(15)}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got, want[i])
		}
	}
}

func TestRecorderDropsOpenSpans(t *testing.T) {
	rec := newRecorder("w")
	root := rec.begin("root", -1, 0)
	open := rec.begin("open", root, 0)
	child := rec.begin("child", root, 0)
	rec.end(child)
	rec.end(root)
	_ = open
	spans := rec.closed()
	if len(spans) != 2 || spans[1].Name != "child" || spans[1].Parent != 0 {
		t.Fatalf("closed() = %+v, want root and its child re-parented to index 0", spans)
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin("x", -1, 0)) // the untraced pass records through a nil recorder
	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	if err := writeChrome(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) != 2 || doc.TraceEvents[0].Ph != "X" {
		t.Fatalf("trace does not load as two complete events: %v, %+v", err, doc.TraceEvents)
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 0.99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with 10 samples beyond", v, ok)
	}
	if _, ok := percentile(xs[:999], 0.99); ok {
		t.Errorf("p99 of 999 samples has 9 beyond it and must be withheld")
	}
	if v, ok := percentile(xs[:500], 0.50); v != 250 || !ok {
		t.Errorf("p50 of 1..500 = %v, %v; want 250", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Errorf("a percentile of nothing must be withheld")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if s := summarize([]float64{3, 1, 2}, "s"); s.Value != 2 || s.Min != 1 || s.Max != 3 || s.Samples != 3 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestVerdict(t *testing.T) {
	tight := func(v float64) sample { return sample{Value: v, Min: v * 0.99, Max: v * 1.01, Samples: 5} }
	higher := metricDecl{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	lower := metricDecl{Name: "cpu_us_per_op", Better: "lower", Bound: 0.10}
	cases := []struct {
		d        metricDecl
		old, new sample
		want     string
	}{
		{higher, tight(100), tight(95), verdictOK},
		{higher, tight(100), tight(85), verdictWorse},
		{higher, tight(100), tight(150), verdictOK},
		{lower, tight(100), tight(105), verdictOK},
		{lower, tight(100), tight(115), verdictWorse},
		{lower, tight(100), tight(50), verdictOK},
		// Old's runs span 80..120, wider than the bound, and overlap new's.
		{higher, sample{Value: 100, Min: 80, Max: 120}, tight(85), verdictUnresolved},
		// As wide, but every new run is worse than every old one.
		{higher, sample{Value: 100, Min: 80, Max: 120}, tight(70), verdictWorse},
	}
	for _, c := range cases {
		if got := verdict(c.d, c.old, c.new); got != c.want {
			t.Errorf("%s %s: old %v new %v: verdict %s, want %s", c.d.Name, c.d.Better, c.old.Value, c.new.Value, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerS float64, failed int64) string {
		f := resultFile{Seconds: 10, Sizes: fullSizes(), Workloads: []workloadResult{{
			Name: "fuzz_syz", Correct: true, Attempted: 1000, Failed: failed,
			EndToEnd: map[string]sample{
				"setup_s":   single(3, "s"),
				"ops_per_s": single(opsPerS, "1/s"),
			},
		}}}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 40000, 0)
	manifestPath := filepath.Join("..", manifestFile)
	for _, c := range []struct {
		name string
		path string
		code int
		has  string
	}{
		{"same", write("same.json", 39000, 0), 0, verdictOK},
		{"slower", write("slower.json", 25000, 0), 1, verdictWorse},
		{"failing", write("failing.json", 40000, 3), 1, "3 of 1000"},
	} {
		var out, errOut bytes.Buffer
		if code := compareFiles(base, c.path, manifestPath, &out, &errOut); code != c.code || !strings.Contains(out.String(), c.has) {
			t.Errorf("%s: exit %d, want %d, and %q in:\n%s%s", c.name, code, c.code, c.has, out.String(), errOut.String())
		}
	}
	var out, errOut bytes.Buffer
	if code := compareFiles(base, filepath.Join(dir, "missing.json"), manifestPath, &out, &errOut); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}

// TestManifest holds BENCHMARK.json and the tables the program prints from
// to each other, and both to the contract's limits.
func TestManifest(t *testing.T) {
	m, err := loadManifest(filepath.Join("..", manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.validate(); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if fmt.Sprint(m.Workloads) != fmt.Sprint(workloads) {
		t.Errorf("workloads differ:\n json %v\n code %v", m.Workloads, workloads)
	}
	if fmt.Sprint(m.EndToEnd) != fmt.Sprint(endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", m.EndToEnd, endToEnd)
	}
	if fmt.Sprint(m.PerLayer) != fmt.Sprint(perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", m.PerLayer, perLayer)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", m.Paths)
	}

	bad := func(name string, edit func(*manifest)) {
		c := m
		c.Workloads = append([]workloadDecl(nil), m.Workloads...)
		c.EndToEnd = append([]metricDecl(nil), m.EndToEnd...)
		c.PerLayer = append([]metricDecl(nil), m.PerLayer...)
		edit(&c)
		if c.validate() == nil {
			t.Errorf("validate accepted a manifest with %s", name)
		}
	}
	bad("a space in a name", func(c *manifest) { c.PerLayer[0].Name = "kernel build" })
	bad("a name used twice", func(c *manifest) { c.PerLayer[1].Name = c.PerLayer[0].Name })
	bad("a bound over a quarter", func(c *manifest) { c.EndToEnd[1].Bound = 0.3 })
	bad("a bound on a per-layer metric", func(c *manifest) { c.PerLayer[0].Bound = 0.1 })
	bad("a unit of 17 characters", func(c *manifest) { c.PerLayer[0].Unit = "seventeen_chars_x" })
	bad("no setup_s", func(c *manifest) { c.EndToEnd = c.EndToEnd[1:] })
	bad("one workload", func(c *manifest) { c.Workloads = c.Workloads[:1] })
	bad("nine workloads", func(c *manifest) {
		for i := 0; len(c.Workloads) < 9; i++ {
			c.Workloads = append(c.Workloads, workloadDecl{fmt.Sprintf("extra%d", i), "x"})
		}
	})
	bad("129 per-layer metrics", func(c *manifest) {
		for i := 0; len(c.PerLayer) < 129; i++ {
			c.PerLayer = append(c.PerLayer, metricDecl{Name: fmt.Sprintf("extra.m%d", i), Unit: "ns", Better: "lower"})
		}
	})
	bad("a why of 201 characters", func(c *manifest) { c.Workloads[0].Why = strings.Repeat("x", 201) })
}

// TestSmoke runs all five workloads end to end at the smoke scale, untraced
// and traced, and checks that every declared metric is printed for every
// workload and that the result file and the trace are written.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "result.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-smoke", "--seconds", "0.4", "--seed", "7", "-out", outPath, "-trace-dir", dir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	file, err := readResults(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) || file.Host.NProc == 0 || file.Host.Go == "" || file.ParityPct <= 0 {
		t.Fatalf("result file holds %d workloads, host %+v, parity %v", len(file.Workloads), file.Host, file.ParityPct)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	for i, res := range file.Workloads {
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct %t, failed %d of %d: %v", res.Name, res.Correct, res.Failed, res.Attempted, res.Problems)
		}
		// The driver's line: the last lines of the output, one per workload.
		var line struct {
			Correct   *bool
			Attempted *int64
			Failed    *int64
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		raw := lines[len(lines)-len(file.Workloads)+i]
		dec := json.NewDecoder(strings.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil {
			t.Fatalf("%s: driver line does not parse: %v\n%s", res.Name, err, raw)
		}
		for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
			got, ok := line.Metrics[d.Name]
			if !ok || got.Value == nil || got.Unit != d.Unit {
				t.Errorf("%s: metric %s missing from the driver line or in unit %q, want %q", res.Name, d.Name, got.Unit, d.Unit)
			}
			if !strings.Contains(stdout.String(), "   "+d.Name+" ") {
				t.Errorf("metric %s is not printed by name", d.Name)
			}
		}
		if n := len(line.Metrics); n != len(endToEnd)+len(perLayer) {
			t.Errorf("%s: %d metrics on the driver line, want %d", res.Name, n, len(endToEnd)+len(perLayer))
		}
		for _, d := range endToEnd {
			if res.EndToEnd[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", res.Name, d.Name, res.EndToEnd[d.Name].Value)
			}
		}
	}
	layer := func(w, name string) float64 { return file.workload(w).PerLayer[name].Value }
	// A bypassed layer reads 0; a layer the workload runs through does not.
	for _, c := range []struct {
		workload, metric string
		zero             bool
	}{
		{"fuzz_syz", "serve.queries", true},
		{"fuzz_syz", "fuzzer.execs", false},
		{"fuzz_snow", "fuzzer.queries", false},
		{"fuzz_syz", "nn.fused_linear_ns", false},
		{"fuzz_snow", "cluster.wire_kb_per_epoch", true},
		{"serve_cold", "fuzzer.execs", true},
		{"serve_cold", "serve.latency_p50_ms", false},
		{"serve_hot", "serve.queue_wait_mean_ms", false},
		{"cluster_snow", "cluster.wire_kb_per_epoch", false},
		{"cluster_snow", "cluster.checkpoint_kb", false},
		{"cluster_snow", "cluster.overhead_ratio", false},
	} {
		if got := layer(c.workload, c.metric); (got == 0) != c.zero {
			t.Errorf("%s %s = %v, want zero: %t", c.workload, c.metric, got, c.zero)
		}
	}
	if hot, cold := layer("serve_hot", "qgraph.hit_rate"), layer("serve_cold", "qgraph.hit_rate"); hot != 1 || cold >= 0.01 {
		t.Errorf("graph-cache hit rate: serve_hot %v, serve_cold %v; want 1 and under 0.01", hot, cold)
	}
	// The same campaigns on both engines.
	for _, m := range []string{"fuzzer.execs", "fuzzer.edges", "fuzzer.queries", "fuzzer.epochs"} {
		if a, b := layer("fuzz_snow", m), layer("cluster_snow", m); a != b {
			t.Errorf("%s: fuzz_snow %v, cluster_snow %v; the engines must agree", m, a, b)
		}
	}
	if _, err := os.Stat(file.Workloads[0].TraceFile); err != nil {
		t.Errorf("trace file: %v", err)
	}
}

// TestGatesFire breaks each correctness gate's premise and checks that the
// gate names the breach.
func TestGatesFire(t *testing.T) {
	sz := smokeSizes()
	sz.GraphCache = 1 << 16 // the pool now fits the cache: serve_cold's second cycle hits
	e, err := setup(3, sz, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	e.pool = e.pool[:64]
	p, err := e.runPass("serve_cold", 300*time.Millisecond, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.problems) == 0 || !strings.Contains(p.problems[0], "serve_cold hit the graph cache") {
		t.Errorf("serve_cold over a pool that fits the cache raised %q", p.problems)
	}

	// Replies that differ from the reference forward.
	p = &pass{}
	q := e.pool[0]
	if err := e.checkReplies(p, []reply{{idx: 0, slots: append(q.Prog.AllSlots(), q.Prog.AllSlots()...)}}); err != nil {
		t.Fatal(err)
	}
	if len(p.problems) != 1 || !strings.Contains(p.problems[0], "differ from the reference") {
		t.Errorf("a wrong reply raised %q", p.problems)
	}

	// Two campaigns that disagree.
	a, err := e.campaign("fuzz_syz", 0, nil, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.campaign("fuzz_syz", 1, nil, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.differs(a) != "" || a.differs(b) == "" {
		t.Errorf("differs: same %q, other seed %q", a.differs(a), a.differs(b))
	}

	// A failed operation.
	p = &pass{attempted: 10}
	p.addServe(serve.Stats{Queries: 1, Failed: 1})
	if p.failed != 1 {
		t.Errorf("a failed query counted %d times", p.failed)
	}
}
