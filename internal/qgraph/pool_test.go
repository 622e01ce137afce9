package qgraph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sync"
	"testing"

	"github.com/repro/snowplow/internal/exec"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/spec"
	"github.com/repro/snowplow/internal/trace"
)

// query is one Build input of the generated pool.
type query struct {
	p       *prog.Prog
	traces  [][]kernel.BlockID
	targets []kernel.BlockID
}

const poolSize = 256

var (
	poolOnce sync.Once
	pool     []query
)

// queryPool returns poolSize executed 2–6-call programs on testKernel, each
// with zero to three targets drawn from its own frontier; every eighth query
// also names an arbitrary block, which may be covered, on the frontier, or
// off it entirely (an isolated target vertex). The pool is a pure function
// of its seed.
func queryPool(t testing.TB) []query {
	t.Helper()
	poolOnce.Do(func() {
		gen := prog.NewGenerator(testKernel.Target)
		e := exec.New(testKernel)
		r := rng.New(33)
		for i := 0; i < poolSize; i++ {
			p := gen.Generate(r, 2+r.Intn(5))
			res, err := e.Run(p)
			if err != nil {
				panic(err)
			}
			var covered trace.BlockSet
			for _, tr := range res.CallTraces {
				for _, b := range tr {
					covered.Add(b)
				}
			}
			alts := testAn.Frontier(covered)
			var targets []kernel.BlockID
			for n := r.Intn(4); n > 0 && len(alts) > 0; n-- {
				targets = append(targets, alts[r.Intn(len(alts))].Entry)
			}
			if i%8 == 0 {
				targets = append(targets, kernel.BlockID(r.Intn(testKernel.NumBlocks())))
			}
			pool = append(pool, query{p: p, traces: res.CallTraces, targets: targets})
		}
	})
	return pool
}

// dumpGraph writes a canonical encoding of every field Build sets: each
// vertex's kind, call, name, slot features and block tokens, the edge list
// in order, and the ArgVertices/Slots prediction surface.
func dumpGraph(h hash.Hash, g *Graph) {
	var buf [8]byte
	word := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	str := func(s string) {
		word(len(s))
		h.Write([]byte(s))
	}
	flag := func(b bool) {
		if b {
			word(1)
		} else {
			word(0)
		}
	}
	word(len(g.Vertices))
	for _, v := range g.Vertices {
		word(int(v.Kind))
		word(v.CallIdx)
		str(v.Name)
		word(v.Slot.Call)
		word(v.Slot.Slot)
		word(int(v.TypeKind))
		word(v.TopArg)
		word(v.Depth)
		flag(v.Absent)
		word(int(v.Block))
		flag(v.Tokens == nil)
		word(len(v.Tokens))
		for _, tok := range v.Tokens {
			str(tok)
		}
	}
	word(len(g.Edges))
	for _, e := range g.Edges {
		word(e.From)
		word(e.To)
		word(int(e.Kind))
	}
	word(len(g.ArgVertices))
	for _, vi := range g.ArgVertices {
		word(vi)
	}
	word(len(g.Slots))
	for _, s := range g.Slots {
		word(s.Call)
		word(s.Slot)
	}
}

// digest is the SHA-256 of a graph's canonical dump.
func digest(g *Graph) string {
	h := sha256.New()
	dumpGraph(h, g)
	return string(h.Sum(nil))
}

// TestBuildPinned pins the graphs themselves: the SHA-256 of the canonical
// dump of Build over the generated pool. The literal was taken before the
// builder's scratch, key and token table were rewritten; any change to
// vertex or edge content or order fails here.
func TestBuildPinned(t *testing.T) {
	const want = "9bb8d8577d42cfd088e27f5ae7fa0369dd1d5d5e3cee160c2d5d29840554dc41"
	b := NewBuilder(testKernel, testAn)
	h := sha256.New()
	for _, q := range queryPool(t) {
		dumpGraph(h, b.Build(q.p, q.traces, q.targets))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("graph dump SHA-256 = %s, want %s", got, want)
	}
}

// maxBuildAllocs is the allocation budget of one cold Build: the Graph and
// its four presized slices. Everything else a build needs lives in the
// builder's pooled scratch or is shared with the kernel (block tokens) and
// the builder (slot tokens).
const maxBuildAllocs = 5

func TestBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates the allocation footprint")
	}
	qs := queryPool(t)
	b := NewBuilder(testKernel, testAn)
	i := 0
	allocs := testing.AllocsPerRun(len(qs), func() {
		q := qs[i%len(qs)]
		i++
		_ = b.Build(q.p, q.traces, q.targets)
	})
	if allocs > maxBuildAllocs {
		t.Fatalf("cold Build allocates %v times per query, budget %d", allocs, maxBuildAllocs)
	}
}

// TestBuildConcurrent builds the pool from 8 goroutines sharing one builder,
// each starting at a different query, and requires every graph to equal the
// sequential one: the pooled scratch must never leak between builds.
func TestBuildConcurrent(t *testing.T) {
	qs := queryPool(t)
	b := NewBuilder(testKernel, testAn)
	want := make([]string, len(qs))
	for i, q := range qs {
		want[i] = digest(b.Build(q.p, q.traces, q.targets))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := range qs {
				i := (n + w*len(qs)/8) % len(qs)
				q := qs[i]
				if digest(b.Build(q.p, q.traces, q.targets)) != want[i] {
					t.Errorf("worker %d: query %d built a different graph", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// Benchmark results land in package-level sinks so the measured calls stay.
var (
	graphSink *Graph
	keySink   cacheKey
)

// BenchmarkBuildGraph prices one cold Build, cycling through the pool.
func BenchmarkBuildGraph(b *testing.B) {
	qs := queryPool(b)
	builder := NewBuilder(testKernel, testAn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		graphSink = builder.Build(q.p, q.traces, q.targets)
	}
}

// BenchmarkQueryKey prices the cache key of one query, cycling through the
// pool.
func BenchmarkQueryKey(b *testing.B) {
	qs := queryPool(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		keySink = hashQuery(q.p, q.traces, q.targets)
	}
}

// TestBuildOtherKernelBuild builds the pool's programs parsed over another
// build of the same kernel version, whose syscall values are distinct from
// the builder's: the graphs must equal the pool's. A call of a syscall the
// kernel does not have must panic rather than borrow a wrong token row.
func TestBuildOtherKernelBuild(t *testing.T) {
	other := kernel.MustBuild(testKernel.Version).Target
	b := NewBuilder(testKernel, testAn)
	for i, q := range queryPool(t)[:32] {
		g := b.Build(prog.MustParse(other, q.p.Serialize()), q.traces, q.targets)
		if digest(g) != digest(b.Build(q.p, q.traces, q.targets)) {
			t.Fatalf("query %d: the other kernel build's program built a different graph", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a call of an unknown syscall did not panic")
		}
	}()
	foreign := &prog.Prog{Calls: []*prog.Call{{Meta: &spec.Syscall{ID: 0, Name: "foreign"}}}}
	b.Build(foreign, nil, nil)
}
