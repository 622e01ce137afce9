package qgraph

import (
	"testing"

	"github.com/repro/snowplow/internal/cfa"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/rng"
)

func cacheFixture(t testing.TB) (*Builder, []*prog.Prog, [][][]kernel.BlockID, [][]kernel.BlockID) {
	t.Helper()
	k := kernel.MustBuild("6.8")
	b := NewBuilder(k, cfa.New(k)).WithCache(4)
	g := prog.NewGenerator(k.Target)
	r := rng.New(77)
	var progs []*prog.Prog
	var traces [][][]kernel.BlockID
	var targets [][]kernel.BlockID
	for i := 0; i < 8; i++ {
		p := g.Generate(r, 2+r.Intn(3))
		progs = append(progs, p)
		tr := make([][]kernel.BlockID, len(p.Calls))
		for ci := range tr {
			tr[ci] = []kernel.BlockID{kernel.BlockID(i), kernel.BlockID(i + 1)}
		}
		traces = append(traces, tr)
		targets = append(targets, []kernel.BlockID{kernel.BlockID(i * 3)})
	}
	return b, progs, traces, targets
}

func TestCacheHitReturnsSameGraph(t *testing.T) {
	b, progs, traces, targets := cacheFixture(t)
	g1 := b.Build(progs[0], traces[0], targets[0])
	g2 := b.Build(progs[0], traces[0], targets[0])
	if g1 != g2 {
		t.Fatal("repeat query did not return the cached graph pointer")
	}
	st := b.Cache.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestCacheKeySensitivity(t *testing.T) {
	b, progs, traces, targets := cacheFixture(t)
	g1 := b.Build(progs[0], traces[0], targets[0])
	// Different targets: must miss and rebuild.
	g2 := b.Build(progs[0], traces[0], []kernel.BlockID{999})
	if g1 == g2 {
		t.Fatal("different targets served from cache")
	}
	// Different traces: must miss.
	other := make([][]kernel.BlockID, len(traces[0]))
	copy(other, traces[0])
	if len(other) > 0 {
		other[0] = []kernel.BlockID{1234}
	}
	g3 := b.Build(progs[0], other, targets[0])
	if g3 == g1 {
		t.Fatal("different traces served from cache")
	}
	// Different program: must miss.
	g4 := b.Build(progs[1], traces[0], targets[0])
	if g4 == g1 {
		t.Fatal("different program served from cache")
	}
	if hits := b.Cache.Stats().Hits; hits != 0 {
		t.Fatalf("unexpected hits: %d", hits)
	}
}

func TestCacheEviction(t *testing.T) {
	b, progs, traces, targets := cacheFixture(t)
	g0 := b.Build(progs[0], traces[0], targets[0])
	// Fill past capacity 4; progs[0] becomes least recently used.
	for i := 1; i < 6; i++ {
		b.Build(progs[i], traces[i], targets[i])
	}
	if n := b.Cache.Stats().Len; n != 4 {
		t.Fatalf("cache len %d, want capacity 4", n)
	}
	if g := b.Build(progs[0], traces[0], targets[0]); g == g0 {
		t.Fatal("evicted entry still served from cache")
	}
	// progs[5] was just inserted and must still be cached.
	before := b.Cache.Stats().Hits
	b.Build(progs[5], traces[5], targets[5])
	if b.Cache.Stats().Hits != before+1 {
		t.Fatal("recent entry was evicted")
	}
}

func TestCacheLRUPromotion(t *testing.T) {
	b, progs, traces, targets := cacheFixture(t)
	for i := 0; i < 4; i++ {
		b.Build(progs[i], traces[i], targets[i])
	}
	// Touch progs[0] so progs[1] is now the LRU entry...
	b.Build(progs[0], traces[0], targets[0])
	// ...then insert a 5th graph, evicting progs[1].
	b.Build(progs[4], traces[4], targets[4])
	before := b.Cache.Stats().Hits
	b.Build(progs[0], traces[0], targets[0])
	if b.Cache.Stats().Hits != before+1 {
		t.Fatal("promoted entry was evicted instead of the LRU one")
	}
	b.Build(progs[1], traces[1], targets[1])
	if b.Cache.Stats().Hits != before+1 {
		t.Fatal("LRU entry survived past capacity")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	b, progs, traces, targets := cacheFixture(t)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				idx := (w + i) % len(progs)
				g := b.Build(progs[idx], traces[idx], targets[idx])
				if g == nil || len(g.Vertices) == 0 {
					t.Error("bad graph from concurrent Build")
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}

// TestDerivedSlotLivesWithCachedGraph pins the lifetime the derived-data slot
// promises its consumer: a hit returns the graph with the slot as stored, and
// a query whose graph was evicted is rebuilt with an empty one.
func TestDerivedSlotLivesWithCachedGraph(t *testing.T) {
	b, progs, traces, targets := cacheFixture(t)
	g := b.Build(progs[0], traces[0], targets[0])
	if g.Derived() != nil {
		t.Fatal("a new graph has derived data")
	}
	type plan struct{ n int }
	want := &plan{n: len(g.Vertices)}
	g.SetDerived(want)
	if hit := b.Build(progs[0], traces[0], targets[0]); hit.Derived() != want {
		t.Fatal("a cache hit lost the stored derived data")
	}
	for i := 1; i < len(progs); i++ { // capacity 4: evicts query 0
		b.Build(progs[i], traces[i], targets[i])
	}
	if rebuilt := b.Build(progs[0], traces[0], targets[0]); rebuilt == g || rebuilt.Derived() != nil {
		t.Fatal("an evicted query came back with derived data")
	}
}
