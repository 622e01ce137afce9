// Package trace post-processes execution traces into coverage, following
// §5.3.1: raw traces are ordered basic-block sequences; edge coverage is the
// set of unique directional basic-block pairs appearing consecutively.
//
// Coverage sets are paged bitmaps rather than hash sets: every execution of
// the campaign loop merges its edge set into corpus totals, so membership,
// merge and new-edge counting are the hottest operations in the fuzzer.
// Word-wise OR plus popcount makes Merge/NewEdges run 64 edges per
// instruction, and the page layout keeps the sparse 64-bit edge space
// compact. Reusable scratch buffers (EdgesOfInto, BlockSetOfInto) let the
// per-execution triage path run without allocating fresh sets.
package trace

import (
	"math/bits"
	"slices"
	"sort"

	"github.com/repro/snowplow/internal/exec"
	"github.com/repro/snowplow/internal/kernel"
)

// Edge is a directional pair of consecutively executed basic blocks.
type Edge uint64

// MakeEdge packs two block IDs into an Edge.
func MakeEdge(from, to kernel.BlockID) Edge {
	return Edge(uint64(uint32(from))<<32 | uint64(uint32(to)))
}

// From returns the edge's source block.
func (e Edge) From() kernel.BlockID { return kernel.BlockID(e >> 32) }

// To returns the edge's destination block.
func (e Edge) To() kernel.BlockID { return kernel.BlockID(uint32(e)) }

// pageBits sizes a bitmap page at 1<<pageBits bits (8 words of 64).
const pageBits = 9

const (
	pageWords = 1 << (pageBits - 6) // uint64 words per page
	pageMask  = 1<<pageBits - 1
)

// coverPage is one 512-bit page of the edge bitmap.
type coverPage [pageWords]uint64

// Cover is a set of covered edges, stored as a paged bitmap keyed by the
// high bits of the edge value. The map serves point lookups; keys and pgs
// list the same pages in insertion order, so whole-set operations range
// over slices instead of iterating the map. The zero value is an empty
// cover ready to use.
type Cover struct {
	pages map[uint64]*coverPage
	keys  []uint64
	// pgs[i] is the page of keys[i]. Past len(pgs), the backing array
	// keeps the pages a Reset released, for page to recycle.
	pgs []*coverPage
	n   int
}

// NewCover returns an empty cover.
func NewCover() *Cover { return &Cover{} }

// Len returns the number of covered edges (maintained incrementally; no
// popcount scan is needed on read).
func (c *Cover) Len() int { return c.n }

// Has reports whether the edge is covered.
func (c *Cover) Has(e Edge) bool {
	pg := c.pages[uint64(e)>>pageBits]
	if pg == nil {
		return false
	}
	off := uint64(e) & pageMask
	return pg[off>>6]&(1<<(off&63)) != 0
}

// page returns the page holding e, allocating (or recycling) it if needed.
func (c *Cover) page(key uint64) *coverPage {
	if pg := c.pages[key]; pg != nil {
		return pg
	}
	if c.pages == nil {
		c.pages = make(map[uint64]*coverPage)
	}
	var pg *coverPage
	if n := len(c.pgs); n < cap(c.pgs) {
		if pg = c.pgs[:n+1][n]; pg != nil {
			*pg = coverPage{}
		}
	}
	if pg == nil {
		pg = new(coverPage)
	}
	c.pages[key] = pg
	c.keys = append(c.keys, key)
	c.pgs = append(c.pgs, pg)
	return pg
}

// Add inserts an edge, reporting whether it was new.
func (c *Cover) Add(e Edge) bool {
	pg := c.page(uint64(e) >> pageBits)
	off := uint64(e) & pageMask
	w, bit := off>>6, uint64(1)<<(off&63)
	if pg[w]&bit != 0 {
		return false
	}
	pg[w] |= bit
	c.n++
	return true
}

// Merge adds all of other's edges word-wise, returning how many were new.
func (c *Cover) Merge(other *Cover) int {
	n := 0
	for i, key := range other.keys {
		pg := c.page(key)
		for w, ow := range other.pgs[i] {
			if nw := ow &^ pg[w]; nw != 0 {
				n += bits.OnesCount64(nw)
				pg[w] |= nw
			}
		}
	}
	c.n += n
	return n
}

// NewEdges counts other's edges that are not in c, without modifying
// either cover.
func (c *Cover) NewEdges(other *Cover) int {
	n := 0
	for i, key := range other.keys {
		opg := other.pgs[i]
		pg := c.pages[key]
		if pg == nil {
			for _, ow := range opg {
				n += bits.OnesCount64(ow)
			}
			continue
		}
		for w, ow := range opg {
			n += bits.OnesCount64(ow &^ pg[w])
		}
	}
	return n
}

// NewEdgesBeyond counts other's edges that are in neither c nor base,
// without modifying any cover: NewEdges against the union of c and base,
// without building the union. c is consulted only for words base leaves
// nonzero, so a small c over a large base costs almost nothing.
func (c *Cover) NewEdgesBeyond(base, other *Cover) int {
	n := 0
	for i, key := range other.keys {
		bpg := base.pages[key]
		var pg *coverPage
		looked := false
		for w, ow := range other.pgs[i] {
			if bpg != nil {
				ow &^= bpg[w]
			}
			if ow == 0 {
				continue
			}
			if !looked {
				pg, looked = c.pages[key], true
			}
			if pg != nil {
				ow &^= pg[w]
			}
			n += bits.OnesCount64(ow)
		}
	}
	return n
}

// MergeBeyond adds other's edges that base lacks to c, word-wise, and
// returns how many were new to c. A c disjoint from base stays disjoint, so
// the union of the two grows by exactly the returned count.
func (c *Cover) MergeBeyond(base, other *Cover) int {
	n := 0
	for i, key := range other.keys {
		var pg *coverPage
		bpg := base.pages[key]
		for w, ow := range other.pgs[i] {
			if bpg != nil {
				ow &^= bpg[w]
			}
			if ow == 0 {
				continue
			}
			if pg == nil {
				pg = c.page(key)
			}
			if nw := ow &^ pg[w]; nw != 0 {
				n += bits.OnesCount64(nw)
				pg[w] |= nw
			}
		}
	}
	c.n += n
	return n
}

// Diff returns the edges in c that are not in other, sorted.
func (c *Cover) Diff(other *Cover) []Edge {
	var out []Edge
	c.forEachPageSorted(func(key uint64, pg *coverPage) {
		opg := other.pages[key]
		for w, cw := range pg {
			if opg != nil {
				cw &^= opg[w]
			}
			appendBits(&out, key, w, cw)
		}
	})
	return out
}

// Edges returns the covered edges in sorted order.
func (c *Cover) Edges() []Edge {
	out := make([]Edge, 0, c.n)
	c.forEachPageSorted(func(key uint64, pg *coverPage) {
		for w, cw := range pg {
			appendBits(&out, key, w, cw)
		}
	})
	return out
}

// forEachPageSorted visits pages in ascending key order, so bit iteration
// yields edges sorted ascending.
func (c *Cover) forEachPageSorted(fn func(key uint64, pg *coverPage)) {
	keys := slices.Clone(c.keys)
	slices.Sort(keys)
	for _, key := range keys {
		fn(key, c.pages[key])
	}
}

// appendBits appends every set bit of word w of the keyed page as an Edge.
func appendBits(out *[]Edge, key uint64, w int, word uint64) {
	base := key<<pageBits | uint64(w)<<6
	for word != 0 {
		*out = append(*out, Edge(base|uint64(bits.TrailingZeros64(word))))
		word &= word - 1
	}
}

// Clone returns a copy.
func (c *Cover) Clone() *Cover {
	out := &Cover{n: c.n}
	if len(c.keys) > 0 {
		out.pages = make(map[uint64]*coverPage, len(c.keys))
		out.keys = slices.Clone(c.keys)
		out.pgs = make([]*coverPage, len(c.pgs))
		buf := make([]coverPage, len(c.pgs))
		for i, pg := range c.pgs {
			buf[i] = *pg
			out.pgs[i] = &buf[i]
			out.pages[c.keys[i]] = &buf[i]
		}
	}
	return out
}

// Reset empties the cover while retaining its pages as scratch capacity for
// reuse, so a hot loop can recompute per-execution coverage without
// allocating.
func (c *Cover) Reset() {
	clear(c.pages)
	c.keys = c.keys[:0]
	c.pgs = c.pgs[:0]
	c.n = 0
}

// EdgesOf extracts the edge coverage of an execution result: unique
// directional pairs of consecutive blocks within each call's trace.
func EdgesOf(res *exec.Result) *Cover {
	return EdgesOfInto(NewCover(), res)
}

// EdgesOfInto recomputes the edge coverage of res into c (after resetting
// it), reusing c's pages as scratch. It returns c.
func EdgesOfInto(c *Cover, res *exec.Result) *Cover {
	c.Reset()
	for _, tr := range res.CallTraces {
		for i := 1; i < len(tr); i++ {
			c.Add(MakeEdge(tr[i-1], tr[i]))
		}
	}
	return c
}

// CoverOfTraces recomputes edge coverage from bare per-call block traces,
// applying the same consecutive-pair rule as EdgesOf. Cluster workers ship
// corpus entries over the wire as (program text, traces); the receiver
// rebuilds cover and blocks from the traces so the derived sets can never
// disagree with the trace payload.
func CoverOfTraces(traces [][]kernel.BlockID) *Cover {
	c := NewCover()
	for _, tr := range traces {
		for i := 1; i < len(tr); i++ {
			c.Add(MakeEdge(tr[i-1], tr[i]))
		}
	}
	return c
}

// BlockSetOfTraces recomputes block coverage from bare per-call block
// traces (the wire-entry counterpart of BlockSetOfInto).
func BlockSetOfTraces(traces [][]kernel.BlockID) BlockSet {
	var s BlockSet
	for _, tr := range traces {
		for _, b := range tr {
			s.Add(b)
		}
	}
	return s
}

// BlocksOf extracts the block coverage of an execution result, as an
// ordered deduplicated slice.
func BlocksOf(res *exec.Result) []kernel.BlockID {
	var s BlockSet
	BlockSetOfInto(&s, res)
	out := make([]kernel.BlockID, 0, s.Len())
	s.ForEach(func(b kernel.BlockID) { out = append(out, b) })
	return out
}

// blockPageBits caps the dense bitmap at this many bits; block IDs are
// small dense kernel indices, so the overflow map stays empty in practice.
const maxDenseBlock = 1 << 22

// BlockSet is a set of covered blocks, stored as a growable dense bitmap
// (block IDs are small dense kernel indices) with an overflow map for
// out-of-range IDs. The zero value is an empty set ready to use.
type BlockSet struct {
	words []uint64
	extra map[kernel.BlockID]struct{} // negative or very large IDs
	n     int
}

// NewBlockSet builds a set from a slice.
func NewBlockSet(blocks []kernel.BlockID) BlockSet {
	var s BlockSet
	for _, b := range blocks {
		s.Add(b)
	}
	return s
}

// BlockSetOfInto recomputes the block coverage of res into s (after
// resetting it), reusing s's bitmap as scratch. It returns s.
func BlockSetOfInto(s *BlockSet, res *exec.Result) *BlockSet {
	s.Reset()
	for _, tr := range res.CallTraces {
		for _, b := range tr {
			s.Add(b)
		}
	}
	return s
}

// Len returns the number of blocks in the set.
func (s BlockSet) Len() int { return s.n }

// Has reports membership.
func (s BlockSet) Has(b kernel.BlockID) bool {
	if b >= 0 && b < maxDenseBlock {
		w := int(b) >> 6
		return w < len(s.words) && s.words[w]&(1<<(uint(b)&63)) != 0
	}
	_, ok := s.extra[b]
	return ok
}

// Add inserts a block, reporting whether it was new.
func (s *BlockSet) Add(b kernel.BlockID) bool {
	if b >= 0 && b < maxDenseBlock {
		w := int(b) >> 6
		if w >= len(s.words) {
			grown := make([]uint64, w+1)
			copy(grown, s.words)
			s.words = grown
		}
		bit := uint64(1) << (uint(b) & 63)
		if s.words[w]&bit != 0 {
			return false
		}
		s.words[w] |= bit
		s.n++
		return true
	}
	if _, ok := s.extra[b]; ok {
		return false
	}
	if s.extra == nil {
		s.extra = map[kernel.BlockID]struct{}{}
	}
	s.extra[b] = struct{}{}
	s.n++
	return true
}

// Merge adds all of other's blocks word-wise, returning how many were new.
func (s *BlockSet) Merge(other BlockSet) int {
	n := 0
	if len(other.words) > len(s.words) {
		grown := make([]uint64, len(other.words))
		copy(grown, s.words)
		s.words = grown
	}
	for w, ow := range other.words {
		if nw := ow &^ s.words[w]; nw != 0 {
			n += bits.OnesCount64(nw)
			s.words[w] |= nw
		}
	}
	s.n += n
	for b := range other.extra {
		if s.Add(b) {
			n++
		}
	}
	return n
}

// ForEach visits every block in ascending order (overflow IDs last).
func (s BlockSet) ForEach(fn func(kernel.BlockID)) {
	for w, word := range s.words {
		base := kernel.BlockID(w << 6)
		for word != 0 {
			fn(base + kernel.BlockID(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	if len(s.extra) > 0 {
		ex := make([]kernel.BlockID, 0, len(s.extra))
		for b := range s.extra {
			ex = append(ex, b)
		}
		sort.Slice(ex, func(i, j int) bool { return ex[i] < ex[j] })
		for _, b := range ex {
			fn(b)
		}
	}
}

// Slice returns the blocks in ascending order.
func (s BlockSet) Slice() []kernel.BlockID {
	out := make([]kernel.BlockID, 0, s.n)
	s.ForEach(func(b kernel.BlockID) { out = append(out, b) })
	return out
}

// Diff returns blocks in s not in other, sorted.
func (s BlockSet) Diff(other BlockSet) []kernel.BlockID {
	var out []kernel.BlockID
	s.ForEach(func(b kernel.BlockID) {
		if !other.Has(b) {
			out = append(out, b)
		}
	})
	return out
}

// Clone returns an independent copy.
func (s BlockSet) Clone() BlockSet {
	out := BlockSet{n: s.n}
	if len(s.words) > 0 {
		out.words = append([]uint64(nil), s.words...)
	}
	if len(s.extra) > 0 {
		out.extra = make(map[kernel.BlockID]struct{}, len(s.extra))
		for b := range s.extra {
			out.extra[b] = struct{}{}
		}
	}
	return out
}

// Reset empties the set while keeping the bitmap allocated for reuse.
func (s *BlockSet) Reset() {
	clear(s.words)
	clear(s.extra)
	s.n = 0
}
