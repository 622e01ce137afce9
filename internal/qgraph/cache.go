package qgraph

import (
	"container/list"
	"fmt"
	"sync"

	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/prog"
)

// cacheKey is a 128-bit fingerprint of a (program, traces, targets) query.
// Two independently seeded and multiplied 64-bit streams over the same word
// sequence make an accidental collision across a campaign's few million
// distinct queries vanishingly unlikely.
type cacheKey struct {
	lo, hi uint64
}

const (
	offsetLo = 0xcbf29ce484222325
	offsetHi = 0x84222325cbf29ce4
	mulLo    = 0x9e3779b97f4a7c15
	mulHi    = 0xc2b2ae3d27d4eb4f
)

// hasher accumulates the two streams one 64-bit word at a time. Each step
// is a bijection of the state for a fixed word and of the word for a fixed
// state, so two equal-length word sequences differing in a single word
// never collide.
type hasher struct {
	lo, hi uint64
}

func newHasher() hasher { return hasher{lo: offsetLo, hi: offsetHi} }

func (h *hasher) word(w uint64) {
	h.lo = (h.lo ^ w) * mulLo
	h.lo ^= h.lo >> 32
	h.hi = (h.hi ^ w) * mulHi
	h.hi ^= h.hi >> 29
}

// hashText hashes a length-prefixed string or byte slice, eight bytes per
// word.
func hashText[T string | []byte](h *hasher, s T) {
	h.word(uint64(len(s)))
	for ; len(s) >= 8; s = s[8:] {
		h.word(uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56)
	}
	if len(s) > 0 {
		var w uint64
		for i := len(s) - 1; i >= 0; i-- {
			w = w<<8 | uint64(s[i])
		}
		h.word(w)
	}
}

// blocks hashes a length-prefixed block list, one word per block.
func (h *hasher) blocks(bs []kernel.BlockID) {
	h.word(uint64(len(bs)))
	for _, b := range bs {
		h.word(uint64(b))
	}
}

// Argument tags. The low byte of an argument's first word names what its
// text form (prog.Serialize) renders, so that two arguments share a key
// exactly when they share a text: a ConstArg and a ResultArg without a
// producer both render their value in hex, and a ResultArg with a producer
// renders only the producer's index.
const (
	tagValue  = iota + 1 // ConstArg, or ResultArg with Ref < 0: next word is the value
	tagRef               // ResultArg with Ref >= 0: Ref in the high bits
	tagString            // StringArg: the string follows
	tagData              // DataArg: the bytes follow
	tagNil               // null PointerArg
	tagPtr               // non-null PointerArg: the pointee follows
	tagGroup             // GroupArg: field count in the high bits, fields follow
)

func (h *hasher) arg(a prog.Arg) {
	switch v := a.(type) {
	case *prog.ConstArg:
		h.word(tagValue)
		h.word(v.Val)
	case *prog.ResultArg:
		if v.Ref >= 0 {
			h.word(uint64(v.Ref)<<8 | tagRef)
		} else {
			h.word(tagValue)
			h.word(v.Val)
		}
	case *prog.StringArg:
		h.word(tagString)
		hashText(h, v.Val)
	case *prog.DataArg:
		h.word(tagData)
		hashText(h, v.Data)
	case *prog.PointerArg:
		if v.Null {
			h.word(tagNil)
			return
		}
		h.word(tagPtr)
		h.arg(v.Inner)
	case *prog.GroupArg:
		h.word(uint64(len(v.Inner))<<8 | tagGroup)
		for _, in := range v.Inner {
			h.arg(in)
		}
	default:
		panic(fmt.Sprintf("qgraph: hash of unknown arg %T", a))
	}
}

// hashQuery fingerprints the full Build input: the program's structure,
// the per-call coverage traces, and the desired target blocks. It walks the
// argument trees directly, with a tag and a length per node, and keys two
// programs equally exactly when their prog.Serialize texts are equal: each
// call contributes its name, whether it renders an "rN = " result prefix,
// and its arguments. Any difference in any of the three inputs produces a
// different key, so a hit is only ever served for a structurally identical
// query.
func hashQuery(p *prog.Prog, traces [][]kernel.BlockID, targets []kernel.BlockID) cacheKey {
	h := newHasher()
	h.word(uint64(len(p.Calls)))
	for _, c := range p.Calls {
		hashText(&h, c.Meta.Name)
		ret := uint64(0)
		if c.Meta.Ret != "" {
			ret = 1
		}
		h.word(uint64(len(c.Args))<<1 | ret)
		for _, a := range c.Args {
			h.arg(a)
		}
	}
	h.word(uint64(len(traces)))
	for _, tr := range traces {
		h.blocks(tr)
	}
	h.blocks(targets)
	return cacheKey{lo: h.lo, hi: h.hi}
}

// Cache is a thread-safe LRU over built query graphs, keyed by the
// structural fingerprint of the (program, traces, targets) triple
// (hashQuery: a word-wise walk of the argument trees that allocates
// nothing). The fuzzer re-queries the same program against the same
// coverage signature whenever a mutation fails to change behavior or a seed
// is revisited; the cache converts those queries into a map lookup. A miss
// costs one build: the frontier analysis and the graph's own vertices and
// edges, with slot tokens from the builder's table and block lookups in its
// pooled scratch.
//
// Cached graphs are shared: Build callers must treat the returned *Graph as
// immutable. The model's forward pass only reads it.
type Cache struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List
	m      map[cacheKey]*list.Element
	hits   int64
	misses int64
}

type cacheEntry struct {
	key cacheKey
	g   *Graph
}

// NewCache creates an LRU cache holding up to capacity graphs.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = 1
	}
	return &Cache{cap: capacity, ll: list.New(), m: make(map[cacheKey]*list.Element, capacity)}
}

// get returns the cached graph for key, if any, promoting it to
// most-recently-used.
func (c *Cache) get(key cacheKey) (*Graph, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheEntry).g, true
	}
	c.misses++
	return nil, false
}

// put inserts a graph, evicting the least-recently-used entry when full.
func (c *Cache) put(key cacheKey, g *Graph) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).g = g
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, g: g})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(*cacheEntry).key)
	}
}

// Capacity returns the cache's configured entry bound.
func (c *Cache) Capacity() int { return c.cap }

// CacheStats reports cache effectiveness counters.
type CacheStats struct {
	Hits, Misses int64
	// Len is the current number of cached graphs.
	Len int
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Len: c.ll.Len()}
}
