package corpus

import (
	"sync"
	"testing"

	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/spec"
	"github.com/repro/snowplow/internal/trace"
)

var target = spec.Base()

func coverOf(edges ...trace.Edge) *trace.Cover {
	c := trace.NewCover()
	for _, e := range edges {
		c.Add(e)
	}
	return c
}

func progN(t *testing.T, seed uint64) *prog.Prog {
	t.Helper()
	return prog.NewGenerator(target).Generate(rng.New(seed), 2)
}

func TestAddRequiresNewEdges(t *testing.T) {
	c := New()
	p1 := progN(t, 1)
	if n := c.Add(p1, coverOf(trace.MakeEdge(1, 2)), trace.BlockSet{}, nil); n != 1 {
		t.Fatalf("first add contributed %d", n)
	}
	// Same coverage, different program: rejected.
	p2 := progN(t, 2)
	if n := c.Add(p2, coverOf(trace.MakeEdge(1, 2)), trace.BlockSet{}, nil); n != 0 {
		t.Fatalf("duplicate coverage accepted: %d", n)
	}
	if c.Len() != 1 {
		t.Fatalf("corpus len %d", c.Len())
	}
	// New edge: accepted.
	if n := c.Add(p2, coverOf(trace.MakeEdge(1, 2), trace.MakeEdge(2, 3)), trace.BlockSet{}, nil); n != 1 {
		t.Fatalf("new edge contributed %d", n)
	}
	if c.TotalEdges() != 2 {
		t.Fatalf("total edges %d", c.TotalEdges())
	}
}

// TestAddDeduplicatesByText pins the check order: a program whose text is
// already in the corpus contributes nothing, even when its cover would add
// edges.
func TestAddDeduplicatesByText(t *testing.T) {
	c := New()
	p := progN(t, 3)
	c.Add(p, coverOf(trace.MakeEdge(1, 2)), trace.BlockSet{}, nil)
	before := c.TotalCover().AppendSparse(nil)
	if n := c.Add(p.Clone(), coverOf(trace.MakeEdge(1, 2), trace.MakeEdge(9, 9)), trace.BlockSet{}, nil); n != 0 {
		t.Fatal("identical program re-added")
	}
	if c.TotalEdges() != 1 || c.Len() != 1 {
		t.Fatalf("duplicate text changed the corpus: %d edges, %d entries", c.TotalEdges(), c.Len())
	}
	if after := c.TotalCover().AppendSparse(nil); string(after) != string(before) {
		t.Fatal("duplicate text merged into the total cover")
	}
}

func TestSeedUnconditional(t *testing.T) {
	c := New()
	p := progN(t, 4)
	if !c.Seed(p, coverOf(), trace.BlockSet{}, nil) {
		t.Fatal("seed rejected")
	}
	if c.Seed(p.Clone(), coverOf(), trace.BlockSet{}, nil) {
		t.Fatal("duplicate seed accepted")
	}
	if c.Len() != 1 {
		t.Fatal("seed not stored")
	}
}

func TestChoose(t *testing.T) {
	c := New()
	if c.Choose(rng.New(1)) != nil {
		t.Fatal("choose on empty corpus")
	}
	for i := uint64(0); i < 5; i++ {
		c.Seed(progN(t, 10+i), coverOf(trace.MakeEdge(trace.Edge(i).From(), 1)), trace.BlockSet{}, nil)
	}
	r := rng.New(2)
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		seen[c.Choose(r).Text] = true
	}
	if len(seen) != c.Len() {
		t.Fatalf("choose visited %d of %d entries", len(seen), c.Len())
	}
}

func TestTotalCoverSnapshot(t *testing.T) {
	c := New()
	c.Seed(progN(t, 20), coverOf(trace.MakeEdge(1, 2)), trace.BlockSet{}, nil)
	snap := c.TotalCover()
	c.Add(progN(t, 21), coverOf(trace.MakeEdge(3, 4)), trace.BlockSet{}, nil)
	if snap.Len() != 1 {
		t.Fatal("snapshot mutated by later add")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(100 + w))
			g := prog.NewGenerator(target)
			for i := 0; i < 50; i++ {
				p := g.Generate(r, 2)
				c.Add(p, coverOf(trace.MakeEdge(trace.Edge(w).From(), trace.Edge(i).From())), trace.BlockSet{}, nil)
				c.Choose(r)
				c.TotalEdges()
			}
		}(w)
	}
	wg.Wait()
	if c.Len() == 0 {
		t.Fatal("no entries after concurrent adds")
	}
}

// TestAddNothingNewAllocs pins the triage fast path: a new program whose
// cover adds no edge is rejected before it is serialized.
func TestAddNothingNewAllocs(t *testing.T) {
	c := New()
	c.Add(progN(t, 6), coverOf(trace.MakeEdge(1, 2), trace.MakeEdge(2, 3)), trace.BlockSet{}, nil)
	p, cover := progN(t, 7), coverOf(trace.MakeEdge(2, 3))
	var blocks trace.BlockSet
	if n := testing.AllocsPerRun(100, func() {
		if c.Add(p, cover, blocks, nil) != 0 {
			t.Fatal("nothing-new program accepted")
		}
	}); n != 0 {
		t.Fatalf("rejecting a nothing-new program: %v allocs/run, want 0", n)
	}
}

func TestEntriesClipped(t *testing.T) {
	c := New()
	for i := uint64(0); i < 3; i++ {
		c.Add(progN(t, 30+i), coverOf(trace.Edge(i)), trace.BlockSet{}, nil)
	}
	entries := c.Entries()
	if cap(entries) != len(entries) {
		t.Fatalf("Entries has cap %d > len %d", cap(entries), len(entries))
	}
	mine := append(entries, &Entry{Text: "caller's"})
	if c.Len() != 3 {
		t.Fatalf("caller append grew the corpus to %d", c.Len())
	}
	c.Add(progN(t, 40), coverOf(trace.Edge(99)), trace.BlockSet{}, nil)
	if got := c.Entries(); len(got) != 4 || got[3].Text == "caller's" {
		t.Fatal("caller append wrote into the corpus")
	}
	if mine[3].Text != "caller's" {
		t.Fatal("corpus append wrote into the caller's slice")
	}
}

// TestEntriesConcurrentAppend races readers against in-place publishing:
// every snapshot a reader sees must keep its prefix as later snapshots
// extend it.
func TestEntriesConcurrentAppend(t *testing.T) {
	const adds = 10000
	c := New()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(200 + w))
			var prev []*Entry
			for {
				select {
				case <-done:
					return
				default:
				}
				c.Choose(r)
				cur := c.Entries()
				if len(cur) < len(prev) {
					t.Errorf("entries shrank from %d to %d", len(prev), len(cur))
					return
				}
				for _, i := range []int{0, len(prev) / 2, len(prev) - 1} {
					if i >= 0 && i < len(prev) && cur[i] != prev[i] {
						t.Errorf("entry %d rewritten", i)
						return
					}
				}
				prev = cur
			}
		}(w)
	}
	g := prog.NewGenerator(target)
	r := rng.New(300)
	accepted := 0
	for i := 0; i < adds; i++ {
		if c.Add(g.Generate(r, 3), coverOf(trace.Edge(i)), trace.BlockSet{}, nil) > 0 {
			accepted++
		}
	}
	close(done)
	wg.Wait()
	if c.Len() != accepted || accepted < adds/2 {
		t.Fatalf("%d entries after %d accepted adds", c.Len(), accepted)
	}
}
