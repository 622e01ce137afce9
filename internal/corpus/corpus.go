// Package corpus manages the fuzzer's corpus of interesting test programs:
// programs whose execution covered edges no earlier corpus program covered.
//
// The corpus is built for many concurrent readers (parallel fuzzing VMs
// picking bases every step) against rare writers (a program joins only when
// it contributes new edges). The read paths — Choose, Entries, Len,
// TotalEdges, Has — never take the write lock: entry listings are served
// from an epoch snapshot behind an atomic pointer (republished on Add/Seed),
// the total edge count is an atomic, and the text-dedup index is
// lock-striped so Has from different VMs doesn't serialize on one mutex.
// Add checks new edges under the total's read lock before anything else, so
// a test that adds nothing — almost every test — is neither serialized nor
// made to wait for the writer mutex.
package corpus

import (
	"sync"
	"sync/atomic"

	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/trace"
)

// Entry is one corpus program with its recorded coverage.
type Entry struct {
	Prog   *prog.Prog
	Cover  *trace.Cover       // edge coverage of the program
	Blocks trace.BlockSet     // block coverage of the program
	Traces [][]kernel.BlockID // per-call block traces (for query graphs)
	Text   string             // serialized form (deduplication key)
}

// EntryFromTraces rebuilds a corpus entry from its serialized form: the
// parsed program plus its per-call block traces. Cover and block sets are
// recomputed from the traces (trace.CoverOfTraces), so an entry
// reconstructed from a cluster delta or a campaign checkpoint is identical
// to the entry the originating VM built from the live execution result.
func EntryFromTraces(p *prog.Prog, traces [][]kernel.BlockID) *Entry {
	return &Entry{
		Prog:   p,
		Cover:  trace.CoverOfTraces(traces),
		Blocks: trace.BlockSetOfTraces(traces),
		Traces: traces,
		Text:   p.Serialize(),
	}
}

// numStripes shards the text-dedup index. Power of two.
const numStripes = 16

type stripe struct {
	mu sync.RWMutex
	m  map[string]*Entry
}

// snapshot is one epoch of the entry list. Add/Seed append in place and
// publish a new snapshot, so an older snapshot's backing array may gain
// elements past its length, but never has an element within its length
// rewritten.
type snapshot struct {
	entries []*Entry
}

// Corpus accumulates interesting programs and total coverage. It is safe
// for concurrent use.
type Corpus struct {
	mu         sync.Mutex // serializes writers (Add/Seed)
	snap       atomic.Pointer[snapshot]
	epoch      atomic.Uint64 // bumped on every successful Add/Seed
	totalMu    sync.RWMutex
	total      *trace.Cover
	totalEdges atomic.Int64
	stripes    [numStripes]stripe
}

// New returns an empty corpus.
func New() *Corpus {
	c := &Corpus{total: trace.NewCover()}
	for i := range c.stripes {
		c.stripes[i].m = map[string]*Entry{}
	}
	c.snap.Store(&snapshot{})
	return c
}

// stripeFor hashes a program text onto its dedup stripe (FNV-1a).
func (c *Corpus) stripeFor(text string) *stripe {
	h := uint32(2166136261)
	for i := 0; i < len(text); i++ {
		h = (h ^ uint32(text[i])) * 16777619
	}
	return &c.stripes[h&(numStripes-1)]
}

// ByText returns the corpus entry with this serialized text (the dedup key
// Add and Seed use), or nil. Barrier-engine shards use it to re-attach a
// restored VM's prediction window to the live entries.
func (c *Corpus) ByText(text string) *Entry {
	st := c.stripeFor(text)
	st.mu.RLock()
	e := st.m[text]
	st.mu.RUnlock()
	return e
}

func (c *Corpus) hasText(text string) bool { return c.ByText(text) != nil }

// publish indexes e by text and appends it to the entry list in place
// (amortised O(1)). Readers of older snapshots are unaffected: they never
// look past their own length. Caller holds c.mu.
func (c *Corpus) publish(e *Entry) {
	st := c.stripeFor(e.Text)
	st.mu.Lock()
	st.m[e.Text] = e
	st.mu.Unlock()
	c.snap.Store(&snapshot{entries: append(c.snap.Load().entries, e)})
	c.epoch.Add(1)
}

// Add inserts the program if its coverage includes edges not yet in the
// corpus total (the update_corpus policy of Figure 1). It returns the
// number of new edges contributed (0 means not added). The accepted entry
// stores clones of cover and blocks, so callers may pass reusable scratch
// sets.
//
// New edges are counted first, under the read lock; only a program that
// has some is serialized and checked against the text index. The total
// only grows, so a program with none could never have been merged.
func (c *Corpus) Add(p *prog.Prog, cover *trace.Cover, blocks trace.BlockSet, traces [][]kernel.BlockID) int {
	if c.NewEdges(cover) == 0 {
		return 0
	}
	text := p.Serialize()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hasText(text) {
		return 0
	}
	c.totalMu.Lock()
	n := c.total.Merge(cover)
	c.totalMu.Unlock()
	if n == 0 {
		return 0
	}
	c.totalEdges.Add(int64(n))
	c.publish(&Entry{Prog: p, Cover: cover.Clone(), Blocks: blocks.Clone(), Traces: traces, Text: text})
	return n
}

// AddEntry inserts a pre-built entry under the same new-edges policy as
// Add, preserving the entry's pointer identity (the parallel reconciler
// uses this so per-VM prediction caches keyed by *Entry survive the merge
// into the shared corpus). The corpus takes ownership of the entry.
func (c *Corpus) AddEntry(e *Entry) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hasText(e.Text) {
		return 0
	}
	c.totalMu.Lock()
	n := c.total.Merge(e.Cover)
	c.totalMu.Unlock()
	if n == 0 {
		return 0
	}
	c.totalEdges.Add(int64(n))
	c.publish(e)
	return n
}

// Seed inserts a program unconditionally (initial seeding), deduplicated by
// text. It reports whether the program was inserted. Like Add, it stores
// clones of cover and blocks.
func (c *Corpus) Seed(p *prog.Prog, cover *trace.Cover, blocks trace.BlockSet, traces [][]kernel.BlockID) bool {
	text := p.Serialize()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hasText(text) {
		return false
	}
	c.totalMu.Lock()
	n := c.total.Merge(cover)
	c.totalMu.Unlock()
	c.totalEdges.Add(int64(n))
	c.publish(&Entry{Prog: p, Cover: cover.Clone(), Blocks: blocks.Clone(), Traces: traces, Text: text})
	return true
}

// SeedEntry inserts a pre-built entry unconditionally (deduplicated by
// text), preserving pointer identity. It reports whether it was inserted.
func (c *Corpus) SeedEntry(e *Entry) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hasText(e.Text) {
		return false
	}
	c.totalMu.Lock()
	n := c.total.Merge(e.Cover)
	c.totalMu.Unlock()
	c.totalEdges.Add(int64(n))
	c.publish(e)
	return true
}

// Choose returns a random corpus entry (the choose_test policy), or nil if
// the corpus is empty. It reads the epoch snapshot and takes no lock.
func (c *Corpus) Choose(r *rng.Rand) *Entry {
	entries := c.snap.Load().entries
	if len(entries) == 0 {
		return nil
	}
	return entries[r.Intn(len(entries))]
}

// Len returns the number of corpus programs.
func (c *Corpus) Len() int {
	return len(c.snap.Load().entries)
}

// TotalEdges returns the total number of unique edges covered.
func (c *Corpus) TotalEdges() int {
	return int(c.totalEdges.Load())
}

// TotalCover returns a snapshot copy of the accumulated edge coverage.
func (c *Corpus) TotalCover() *trace.Cover {
	c.totalMu.RLock()
	defer c.totalMu.RUnlock()
	return c.total.Clone()
}

// ReadTotal calls fn with the accumulated edge coverage under the read
// lock, for a reader that overlays a cover of its own on the total instead
// of cloning it. fn must neither retain nor modify the cover.
func (c *Corpus) ReadTotal(fn func(total *trace.Cover)) {
	c.totalMu.RLock()
	defer c.totalMu.RUnlock()
	fn(c.total)
}

// AppendTotalSparse appends the sparse encoding (trace.Cover.AppendSparse)
// of the accumulated edge coverage to dst, reading it under the read lock
// instead of cloning it first.
func (c *Corpus) AppendTotalSparse(dst []byte) []byte {
	c.totalMu.RLock()
	defer c.totalMu.RUnlock()
	return c.total.AppendSparse(dst)
}

// Entries returns the current epoch's entry snapshot without copying. The
// slice shares its backing array with the corpus, which appends to it in
// place, so it is capacity-clipped: an append by the caller always copies
// and cannot write into the corpus. Its elements must not be assigned.
func (c *Corpus) Entries() []*Entry {
	entries := c.snap.Load().entries
	return entries[:len(entries):len(entries)]
}

// Epoch returns a counter that increments whenever the entry snapshot is
// invalidated by Add/Seed. Callers can compare epochs to detect whether a
// previously fetched Entries slice is still current.
func (c *Corpus) Epoch() uint64 {
	return c.epoch.Load()
}

// NewEdges reports how many of cover's edges are not yet in the corpus
// total, without modifying anything.
func (c *Corpus) NewEdges(cover *trace.Cover) int {
	c.totalMu.RLock()
	defer c.totalMu.RUnlock()
	return c.total.NewEdges(cover)
}

// Has reports whether an identical program is already in the corpus.
func (c *Corpus) Has(p *prog.Prog) bool {
	return c.hasText(p.Serialize())
}

// HasText reports whether a program with this serialized text is already in
// the corpus (the dedup key Add and Seed use).
func (c *Corpus) HasText(text string) bool {
	return c.hasText(text)
}
