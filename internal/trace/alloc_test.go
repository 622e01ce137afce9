package trace

import (
	"bytes"
	"testing"

	"github.com/repro/snowplow/internal/exec"
	"github.com/repro/snowplow/internal/kernel"
)

// allocResult is a result whose edges span several bitmap pages.
func allocResult() *exec.Result {
	return &exec.Result{CallTraces: [][]kernel.BlockID{
		{1, 2, 3, 900, 901, 4},
		{70000, 70001, 2, 3},
		{5, 1 << 20, 6},
	}}
}

func TestEdgesOfIntoAllocs(t *testing.T) {
	res := allocResult()
	var cover Cover
	var blocks BlockSet
	EdgesOfInto(&cover, res)
	BlockSetOfInto(&blocks, res)
	if n := testing.AllocsPerRun(100, func() { EdgesOfInto(&cover, res) }); n != 0 {
		t.Errorf("EdgesOfInto on warmed scratch: %v allocs/run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { BlockSetOfInto(&blocks, res) }); n != 0 {
		t.Errorf("BlockSetOfInto on warmed scratch: %v allocs/run, want 0", n)
	}
}

func TestCoverResetRefillAllocs(t *testing.T) {
	edges := []Edge{MakeEdge(1, 2), MakeEdge(1, 3), MakeEdge(9, 1), MakeEdge(1<<20, 5), MakeEdge(7, 1<<30)}
	c := NewCover()
	fill := func() {
		c.Reset()
		for _, e := range edges {
			c.Add(e)
		}
	}
	fill()
	if n := testing.AllocsPerRun(100, fill); n != 0 {
		t.Errorf("Reset + refill: %v allocs/run, want 0", n)
	}
}

// TestCoverResetRecycles pins the recycled-page bookkeeping: a cover reset
// and refilled with a different, smaller edge set is indistinguishable from
// one built fresh, down to its sparse encoding.
func TestCoverResetRecycles(t *testing.T) {
	c := EdgesOf(allocResult())
	c.Reset()
	if c.Len() != 0 || len(c.Edges()) != 0 || c.Has(MakeEdge(1, 2)) {
		t.Fatal("reset cover still holds edges")
	}
	fresh := NewCover()
	for _, e := range []Edge{MakeEdge(9, 9), MakeEdge(1, 2)} {
		c.Add(e)
		fresh.Add(e)
	}
	if c.Len() != fresh.Len() || !bytes.Equal(c.AppendSparse(nil), fresh.AppendSparse(nil)) {
		t.Fatalf("refilled cover %v differs from fresh %v", c.Edges(), fresh.Edges())
	}
	if n := fresh.NewEdges(c); n != 0 {
		t.Fatalf("refilled cover has %d edges the fresh one lacks", n)
	}
	clone := c.Clone()
	c.Reset()
	if clone.Len() != 2 || !clone.Has(MakeEdge(9, 9)) {
		t.Fatal("clone shares pages with the cover it was taken from")
	}
}
