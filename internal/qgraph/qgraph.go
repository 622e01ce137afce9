// Package qgraph builds the argument-mutation query graph of §3.2: a single
// graph joining the test program's syntax tree with the kernel coverage it
// triggered, connected by explicit kernel-user context-switch edges.
//
// Vertices are system calls, argument slots, covered kernel blocks,
// uncovered "alternative path entry" blocks one branch away, and the subset
// of alternatives marked as the desired targets. Edges capture call
// ordering, argument ordering, argument data flow, covered and uncovered
// kernel control flow, and the context switches between user and kernel
// space. PMM consumes this graph directly.
package qgraph

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/repro/snowplow/internal/cfa"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/spec"
	"github.com/repro/snowplow/internal/trace"
)

// VertexKind classifies graph vertices.
type VertexKind int

// The vertex kinds of Figure 5.
const (
	VSyscall     VertexKind = iota // a system-call invocation of the test
	VArg                           // one flattened argument slot
	VCovered                       // a kernel block the test covered
	VAlternative                   // an uncovered block one branch away
	VTarget                        // an alternative marked as desired target
)

// String names the kind.
func (k VertexKind) String() string {
	switch k {
	case VSyscall:
		return "syscall"
	case VArg:
		return "argument"
	case VCovered:
		return "covered"
	case VAlternative:
		return "alternative"
	case VTarget:
		return "target"
	default:
		return "vertex"
	}
}

// EdgeKind classifies graph edges.
type EdgeKind int

// The edge kinds of Figure 5.
const (
	ECallOrder     EdgeKind = iota // syscall i -> syscall i+1
	EArgOrder                      // argument slot j -> slot j+1 within a call
	EArgInOut                      // data flow between calls and arguments
	ECoveredFlow                   // executed kernel control-flow edge
	EUncoveredFlow                 // branch-not-taken edge to an alternative
	ECtxSwitch                     // kernel-user context switch
)

// NumEdgeKinds is the size of the edge-kind vocabulary.
const NumEdgeKinds = 6

// String names the kind.
func (k EdgeKind) String() string {
	switch k {
	case ECallOrder:
		return "call-order"
	case EArgOrder:
		return "arg-order"
	case EArgInOut:
		return "arg-in/out"
	case ECoveredFlow:
		return "covered-flow"
	case EUncoveredFlow:
		return "uncovered-flow"
	case ECtxSwitch:
		return "ctx-switch"
	default:
		return "edge"
	}
}

// Vertex is one graph node.
type Vertex struct {
	Kind VertexKind

	// VSyscall: the call's index in the program and its variant name.
	CallIdx int
	Name    string

	// VArg: the slot it represents and its static features.
	Slot     prog.GlobalSlot
	TypeKind spec.TypeKind
	TopArg   int  // top-level argument index (maps to the ABI register)
	Depth    int  // nesting depth of the slot path
	Absent   bool // slot currently hidden behind a null pointer

	// VCovered / VAlternative / VTarget: the kernel block.
	Block kernel.BlockID
	// Tokens are the block's disassembly tokens (kernel.Block.Tokens) or,
	// for VArg, the slot's access-path tokens (kernel.SlotTokenTable). The
	// slices are shared with the kernel, the builder and every other graph
	// and are immutable: read them, never write or append to them.
	Tokens []string
}

// Edge is one directed graph edge.
type Edge struct {
	From, To int
	Kind     EdgeKind
}

// Graph is a complete mutation query.
type Graph struct {
	Vertices []Vertex
	Edges    []Edge
	// ArgVertices holds the vertex indices of the argument slots, aligned
	// with prog.Prog.AllSlots() order — the prediction surface.
	ArgVertices []int
	// Slots mirrors ArgVertices with the identified slots.
	Slots []prog.GlobalSlot

	// derived is the graph's one slot for data a consumer computed from the
	// graph alone (see Derived).
	derived atomic.Value
}

// Derived returns what SetDerived last stored on the graph, or nil. The slot
// lets the one consumer that forwards a cached graph many times (PMM's
// forward plan) keep what it derives from the graph with the graph, so the
// cache's eviction is also the derived data's: qgraph neither reads nor
// interprets the value. A graph is immutable once built; a copy whose
// vertices or edges are then changed must be made before the slot is filled.
func (g *Graph) Derived() any { return g.derived.Load() }

// SetDerived stores v in the graph's derived-data slot. It is safe under
// concurrent use; the last store wins, so concurrent callers must store
// interchangeable values, all of one concrete type.
func (g *Graph) SetDerived(v any) { g.derived.Store(v) }

// Stats summarizes a graph for §5.1-style reporting.
type Stats struct {
	Syscalls, Args, Covered, Alternatives, Targets int
	CallOrder, ArgOrder, ArgInOut                  int
	CoveredFlow, UncoveredFlow, CtxSwitch          int
}

// Stats computes vertex/edge kind counts.
func (g *Graph) Stats() Stats {
	var s Stats
	for _, v := range g.Vertices {
		switch v.Kind {
		case VSyscall:
			s.Syscalls++
		case VArg:
			s.Args++
		case VCovered:
			s.Covered++
		case VAlternative:
			s.Alternatives++
		case VTarget:
			s.Targets++
		}
	}
	for _, e := range g.Edges {
		switch e.Kind {
		case ECallOrder:
			s.CallOrder++
		case EArgOrder:
			s.ArgOrder++
		case EArgInOut:
			s.ArgInOut++
		case ECoveredFlow:
			s.CoveredFlow++
		case EUncoveredFlow:
			s.UncoveredFlow++
		case ECtxSwitch:
			s.CtxSwitch++
		}
	}
	return s
}

// Builder constructs query graphs against one kernel. A Builder must be
// made by NewBuilder; Build is safe for concurrent use.
type Builder struct {
	K  *kernel.Kernel
	An *cfa.Analysis
	// DropCtxSwitch severs the kernel-user context-switch edges; used only
	// by the representation ablation.
	DropCtxSwitch bool
	// MaxAlternatives caps the alternative vertices per graph to bound
	// model input size (0 = unlimited).
	MaxAlternatives int
	// Cache, when non-nil, memoizes built graphs by the structural
	// fingerprint of the (program, traces, targets) triple (see WithCache).
	// Cached graphs are shared between callers and must be treated as
	// immutable.
	Cache *Cache

	// slotTokens is kernel.SlotTokenTable(K.Target), built once: the
	// access-path tokens of every slot, indexed by syscall ID and slot.
	slotTokens [][][]string
	// scratch pools *buildScratch, one per concurrent build.
	scratch sync.Pool
}

// NewBuilder returns a Builder over the kernel.
func NewBuilder(k *kernel.Kernel, an *cfa.Analysis) *Builder {
	b := &Builder{K: k, An: an, MaxAlternatives: 2048, slotTokens: kernel.SlotTokenTable(k.Target)}
	b.scratch.New = func() any { return &buildScratch{marks: make([]blockMark, k.NumBlocks())} }
	return b
}

// WithCache attaches an LRU graph-encoding cache of the given capacity and
// returns the builder for chaining.
func (b *Builder) WithCache(capacity int) *Builder {
	b.Cache = NewCache(capacity)
	return b
}

// Build assembles the query graph for a program, its per-call execution
// traces, and the desired target blocks. Targets should be alternative path
// entries of the coverage; target blocks not on the frontier are added as
// isolated target vertices (the model sees them but without local context).
// With a Cache attached, a structurally identical repeat query returns the
// cached graph without rebuilding.
func (b *Builder) Build(p *prog.Prog, traces [][]kernel.BlockID, targets []kernel.BlockID) *Graph {
	g, _ := b.BuildCached(p, traces, targets)
	return g
}

// BuildCached is Build plus a report of whether the graph was served from
// the attached cache (always false without one), so multi-tenant serving
// can attribute the shared cache's hit/miss traffic to the querying tenant.
func (b *Builder) BuildCached(p *prog.Prog, traces [][]kernel.BlockID, targets []kernel.BlockID) (*Graph, bool) {
	if b.Cache == nil {
		return b.build(p, traces, targets), false
	}
	key := hashQuery(p, traces, targets)
	if g, ok := b.Cache.get(key); ok {
		return g, true
	}
	g := b.build(p, traces, targets)
	b.Cache.put(key, g)
	return g, false
}

// slotTokensOf returns the slot-token row of a call's syscall. A program
// may come from another build of the same kernel spec (a cluster server
// builds its own kernel), whose *spec.Syscall values differ from K.Target's;
// its row is the same when the slot paths, of which the tokens are a pure
// function, agree. A call of any other syscall is a caller error.
func (b *Builder) slotTokensOf(meta *spec.Syscall) [][]string {
	if id := meta.ID; id >= 0 && id < len(b.slotTokens) {
		if own := b.K.Target.Calls[id]; own == meta || samePaths(own.Slots(), meta.Slots()) {
			return b.slotTokens[id]
		}
	}
	panic(fmt.Sprintf("qgraph: %s is not a syscall of kernel %s", meta.Name, b.K.Version))
}

func samePaths(a, b []spec.Slot) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !slices.Equal(a[i].Path, b[i].Path) {
			return false
		}
	}
	return true
}

// blockMark is one kernel block's entry in a build's dense scratch. A field
// group is live only while its stamp equals the scratch's current
// generation, so a build starts by bumping the generation instead of
// clearing one entry per kernel block.
type blockMark struct {
	cov, alt               int32  // covered / alternative-or-target vertex
	covGen, altGen, tgtGen uint32 // stamps of cov, alt and target membership
}

// buildScratch is the working state of one build, reused across builds
// through Builder.scratch. Nothing in it is reachable from a built Graph.
type buildScratch struct {
	gen   uint32
	marks []blockMark // indexed by kernel.BlockID

	covered    trace.BlockSet
	alts       []cfa.Alternative
	order      []kernel.BlockID // covered blocks in vertex order
	callVertex []int
	flow       []Edge  // coverage-phase edges in graph order
	pairs      pairSet // covered-flow edges already emitted
}

// begin starts a build: a fresh generation and empty buffers.
func (s *buildScratch) begin() {
	s.gen++
	if s.gen == 0 { // wrapped: stale stamps could read as live
		clear(s.marks)
		s.gen = 1
	}
	s.covered.Reset()
	s.alts = s.alts[:0]
	s.order = s.order[:0]
	s.callVertex = s.callVertex[:0]
	s.flow = s.flow[:0]
}

// pairSet is a set of packed vertex pairs reused across builds: open
// addressing with linear probing over a power-of-two table whose slots are
// generation-stamped like blockMark.
type pairSet struct {
	slots []pairSlot
	gen   uint32
	shift uint8
}

type pairSlot struct {
	key uint64
	gen uint32
}

// reset empties the set and makes room for n insertions at a load of at
// most one half.
func (s *pairSet) reset(n int) {
	if s.slots == nil || len(s.slots) < 2*n {
		size := 64
		for size < 2*n {
			size *= 2
		}
		s.slots = make([]pairSlot, size)
		s.shift = uint8(64 - bits.TrailingZeros(uint(size)))
		s.gen = 0
	}
	s.gen++
	if s.gen == 0 {
		clear(s.slots)
		s.gen = 1
	}
}

// add inserts key and reports whether it was absent.
func (s *pairSet) add(key uint64) bool {
	mask := len(s.slots) - 1
	for i := int((key * 0x9e3779b97f4a7c15) >> s.shift); ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.gen != s.gen {
			*sl = pairSlot{key: key, gen: s.gen}
			return true
		}
		if sl.key == key {
			return false
		}
	}
}

// build is the uncached graph construction. It sizes every slice of the
// graph before filling it (Edges to a bound that counts a producer edge for
// every resource slot): a first pass over the program, the traces and the
// frontier numbers the vertices and stages the coverage edges in the
// scratch, and a second pass writes the graph in vertex order.
func (b *Builder) build(p *prog.Prog, traces [][]kernel.BlockID, targets []kernel.BlockID) *Graph {
	s := b.scratch.Get().(*buildScratch)
	defer b.scratch.Put(s)
	s.begin()
	gen, marks := s.gen, s.marks
	for _, t := range targets {
		marks[t].tgtGen = gen
	}

	// Program tree: one syscall vertex per call followed by its slots.
	nVert, nEdge := 0, 0
	for ci, call := range p.Calls {
		s.callVertex = append(s.callVertex, nVert)
		nVert++
		if ci > 0 {
			nEdge++ // call order
		}
		for si, slot := range call.Meta.Slots() {
			nVert++
			nEdge++ // argument feeds its call
			if slot.Type.Kind == spec.KindResource {
				nEdge++ // at most one producing call feeds the argument
			}
			if si > 0 {
				nEdge++ // argument order
			}
		}
	}
	nSlots := nVert - len(p.Calls)

	// Coverage graph: one vertex per unique covered block, edges for unique
	// consecutive pairs, per call.
	if len(traces) > len(p.Calls) {
		traces = traces[:len(p.Calls)]
	}
	steps := 0
	for _, tr := range traces {
		steps += len(tr)
	}
	s.pairs.reset(steps)
	for ci, tr := range traces {
		var first, prev int
		for i, id := range tr {
			m := &marks[id]
			if m.covGen != gen {
				m.covGen, m.cov = gen, int32(nVert)
				nVert++
				s.order = append(s.order, id)
				s.covered.Add(id)
			}
			vi := int(m.cov)
			if i == 0 {
				first = vi
			} else if s.pairs.add(uint64(prev)<<32 | uint64(vi)) {
				s.flow = append(s.flow, Edge{From: prev, To: vi, Kind: ECoveredFlow})
			}
			prev = vi
		}
		if len(tr) > 0 && !b.DropCtxSwitch {
			s.flow = append(s.flow,
				Edge{From: s.callVertex[ci], To: first, Kind: ECtxSwitch},
				Edge{From: prev, To: s.callVertex[ci], Kind: ECtxSwitch})
		}
	}
	nEdge += len(s.flow)

	// Alternative path entries: uncovered blocks one branch away.
	s.alts = b.An.AppendFrontier(s.alts, s.covered)
	alts := s.alts
	if b.MaxAlternatives > 0 && len(alts) > b.MaxAlternatives {
		alts = alts[:b.MaxAlternatives]
	}
	for _, alt := range alts {
		if m := &marks[alt.Entry]; m.altGen != gen {
			m.altGen, m.alt = gen, int32(nVert)
			nVert++
		}
	}
	nEdge += len(alts)
	// Targets that are not on the visible frontier still appear, isolated.
	for _, t := range targets {
		if m := &marks[t]; m.altGen != gen && m.covGen != gen {
			m.altGen, m.alt = gen, int32(nVert)
			nVert++
		}
	}

	g := &Graph{
		Vertices:    make([]Vertex, 0, nVert),
		Edges:       make([]Edge, 0, nEdge),
		ArgVertices: make([]int, 0, nSlots),
		Slots:       make([]prog.GlobalSlot, 0, nSlots),
	}
	for ci, call := range p.Calls {
		cv := s.callVertex[ci]
		g.Vertices = append(g.Vertices, Vertex{Kind: VSyscall, CallIdx: ci, Name: call.Meta.Name})
		if ci > 0 {
			g.Edges = append(g.Edges, Edge{From: s.callVertex[ci-1], To: cv, Kind: ECallOrder})
		}
		tokens := b.slotTokensOf(call.Meta)
		for si, slot := range call.Meta.Slots() {
			av := len(g.Vertices)
			a := call.ArgAtPath(slot.Path)
			v := Vertex{
				Kind:     VArg,
				Slot:     prog.GlobalSlot{Call: ci, Slot: si},
				TypeKind: slot.Type.Kind,
				TopArg:   slot.Path[0],
				Depth:    len(slot.Path) - 1,
				Absent:   a == nil,
				// Access-path tokens (ABI register, struct offsets) share
				// the kernel-disassembly vocabulary, letting the model
				// align arguments with the blocks that inspect them.
				Tokens: tokens[si],
			}
			g.Vertices = append(g.Vertices, v)
			g.ArgVertices = append(g.ArgVertices, av)
			g.Slots = append(g.Slots, v.Slot)
			// Data flow: argument feeds its call.
			g.Edges = append(g.Edges, Edge{From: av, To: cv, Kind: EArgInOut})
			// Resource flow: producing call feeds the argument.
			if ra, ok := a.(*prog.ResultArg); ok && ra.Ref >= 0 && ra.Ref < ci {
				g.Edges = append(g.Edges, Edge{From: s.callVertex[ra.Ref], To: av, Kind: EArgInOut})
			}
			// Argument ordering chain.
			if si > 0 {
				g.Edges = append(g.Edges, Edge{From: av - 1, To: av, Kind: EArgOrder})
			}
		}
	}
	for _, id := range s.order {
		g.Vertices = append(g.Vertices, Vertex{Kind: VCovered, Block: id, Tokens: b.K.Block(id).Tokens})
	}
	g.Edges = append(g.Edges, s.flow...)
	for _, alt := range alts {
		m := &marks[alt.Entry]
		if int(m.alt) == len(g.Vertices) { // first occurrence
			kind := VAlternative
			if m.tgtGen == gen {
				kind = VTarget
			}
			g.Vertices = append(g.Vertices, Vertex{Kind: kind, Block: alt.Entry, Tokens: b.K.Block(alt.Entry).Tokens})
		}
		g.Edges = append(g.Edges, Edge{From: int(marks[alt.From].cov), To: int(m.alt), Kind: EUncoveredFlow})
	}
	for _, t := range targets {
		if m := &marks[t]; m.altGen == gen && int(m.alt) == len(g.Vertices) {
			g.Vertices = append(g.Vertices, Vertex{Kind: VTarget, Block: t, Tokens: b.K.Block(t).Tokens})
		}
	}
	return g
}
