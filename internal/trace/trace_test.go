package trace

import (
	"testing"
	"testing/quick"

	"github.com/repro/snowplow/internal/exec"
	"github.com/repro/snowplow/internal/kernel"
)

func TestEdgePackUnpack(t *testing.T) {
	if err := quick.Check(func(a, b uint32) bool {
		e := MakeEdge(kernel.BlockID(a), kernel.BlockID(b))
		return e.From() == kernel.BlockID(a) && e.To() == kernel.BlockID(b)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCoverAddMergeDiff(t *testing.T) {
	a, b := NewCover(), NewCover()
	e1 := MakeEdge(1, 2)
	e2 := MakeEdge(2, 3)
	e3 := MakeEdge(3, 4)
	if !a.Add(e1) || !a.Add(e2) {
		t.Fatal("fresh adds reported not-new")
	}
	if a.Add(e1) {
		t.Fatal("duplicate add reported new")
	}
	b.Add(e2)
	b.Add(e3)
	if n := a.Merge(b); n != 1 {
		t.Fatalf("Merge added %d, want 1", n)
	}
	if a.Len() != 3 {
		t.Fatalf("Len = %d", a.Len())
	}
	d := b.Diff(a)
	if len(d) != 0 {
		t.Fatalf("b \\ a = %v, want empty", d)
	}
	onlyA := a.Diff(b)
	if len(onlyA) != 1 || onlyA[0] != e1 {
		t.Fatalf("a \\ b = %v, want [e1]", onlyA)
	}
}

func TestCoverZeroValueUsable(t *testing.T) {
	var c Cover
	if c.Has(MakeEdge(1, 2)) {
		t.Fatal("empty cover has edge")
	}
	if !c.Add(MakeEdge(1, 2)) {
		t.Fatal("add on zero-value cover failed")
	}
	if c.Len() != 1 {
		t.Fatal("len after add")
	}
}

func TestCoverCloneIndependent(t *testing.T) {
	a := NewCover()
	a.Add(MakeEdge(1, 2))
	b := a.Clone()
	b.Add(MakeEdge(3, 4))
	if a.Len() != 1 || b.Len() != 2 {
		t.Fatalf("clone not independent: %d %d", a.Len(), b.Len())
	}
}

func TestEdgesSorted(t *testing.T) {
	c := NewCover()
	c.Add(MakeEdge(9, 1))
	c.Add(MakeEdge(1, 9))
	c.Add(MakeEdge(5, 5))
	es := c.Edges()
	for i := 1; i < len(es); i++ {
		if es[i-1] >= es[i] {
			t.Fatalf("edges not sorted: %v", es)
		}
	}
}

func TestEdgesOfResult(t *testing.T) {
	res := &exec.Result{CallTraces: [][]kernel.BlockID{
		{1, 2, 3},
		{3, 2},
	}}
	c := EdgesOf(res)
	want := []Edge{MakeEdge(1, 2), MakeEdge(2, 3), MakeEdge(3, 2)}
	if c.Len() != len(want) {
		t.Fatalf("%d edges, want %d", c.Len(), len(want))
	}
	for _, e := range want {
		if !c.Has(e) {
			t.Fatalf("missing edge %d->%d", e.From(), e.To())
		}
	}
	// No cross-call edge: 3 (end of call 0) -> 3 (start of call 1).
	if c.Has(MakeEdge(3, 3)) {
		t.Fatal("cross-call edge recorded")
	}
}

func TestBlocksOfDeduplicated(t *testing.T) {
	res := &exec.Result{CallTraces: [][]kernel.BlockID{{5, 1, 5}, {1, 2}}}
	blocks := BlocksOf(res)
	if len(blocks) != 3 {
		t.Fatalf("blocks = %v", blocks)
	}
	for i := 1; i < len(blocks); i++ {
		if blocks[i-1] >= blocks[i] {
			t.Fatalf("blocks not sorted: %v", blocks)
		}
	}
}

func TestBlockSetOps(t *testing.T) {
	s := NewBlockSet([]kernel.BlockID{1, 2, 3})
	o := NewBlockSet([]kernel.BlockID{2})
	if !s.Has(1) || s.Has(9) {
		t.Fatal("Has wrong")
	}
	if s.Add(1) {
		t.Fatal("re-add reported new")
	}
	if !s.Add(9) {
		t.Fatal("new add reported old")
	}
	d := s.Diff(o)
	if len(d) != 3 { // 1, 3, 9
		t.Fatalf("diff = %v", d)
	}
}

// TestCoverBeyondMatchesUnion checks NewEdgesBeyond and MergeBeyond against
// the union they avoid building, on edges that share and split pages.
func TestCoverBeyondMatchesUnion(t *testing.T) {
	if err := quick.Check(func(cs, bs, os []uint16) bool {
		mk := func(xs []uint16) *Cover {
			c := NewCover()
			for _, x := range xs {
				c.Add(MakeEdge(kernel.BlockID(x>>8), kernel.BlockID(x&0x3ff)))
			}
			return c
		}
		base, other := mk(bs), mk(os)
		c := NewCover()
		c.MergeBeyond(base, mk(cs)) // c starts disjoint from base
		union := c.Clone()
		union.Merge(base)
		want := union.NewEdges(other)
		if c.NewEdgesBeyond(base, other) != want {
			return false
		}
		baseLen := base.Len()
		if c.MergeBeyond(base, other) != want || base.Len() != baseLen {
			return false
		}
		union.Merge(other)
		for _, e := range c.Edges() {
			if base.Has(e) {
				return false
			}
		}
		return c.Len()+base.Len() == union.Len()
	}, nil); err != nil {
		t.Fatal(err)
	}
}
