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

	// VCovered / VAlternative / VTarget: the kernel block and its tokens.
	Block  kernel.BlockID
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

// Builder constructs query graphs against one kernel.
type Builder struct {
	K  *kernel.Kernel
	An *cfa.Analysis
	// DropCtxSwitch severs the kernel-user context-switch edges; used only
	// by the representation ablation.
	DropCtxSwitch bool
	// MaxAlternatives caps the alternative vertices per graph to bound
	// model input size (0 = unlimited).
	MaxAlternatives int
	// Cache, when non-nil, memoizes built graphs by the fingerprint of the
	// (program, traces, targets) triple (see WithCache). Cached graphs are
	// shared between callers and must be treated as immutable.
	Cache *Cache
}

// NewBuilder returns a Builder over the kernel.
func NewBuilder(k *kernel.Kernel, an *cfa.Analysis) *Builder {
	return &Builder{K: k, An: an, MaxAlternatives: 2048}
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

// build is the uncached graph construction.
func (b *Builder) build(p *prog.Prog, traces [][]kernel.BlockID, targets []kernel.BlockID) *Graph {
	g := &Graph{}
	targetSet := map[kernel.BlockID]bool{}
	for _, t := range targets {
		targetSet[t] = true
	}

	// Program tree: syscall vertices and argument vertices.
	callVertex := make([]int, len(p.Calls))
	for ci, call := range p.Calls {
		callVertex[ci] = len(g.Vertices)
		g.Vertices = append(g.Vertices, Vertex{Kind: VSyscall, CallIdx: ci, Name: call.Meta.Name})
		if ci > 0 {
			g.Edges = append(g.Edges, Edge{From: callVertex[ci-1], To: callVertex[ci], Kind: ECallOrder})
		}
		slotArgs := call.SlotArgs()
		prevArg := -1
		for si, slot := range call.Meta.Slots() {
			av := len(g.Vertices)
			v := Vertex{
				Kind:     VArg,
				Slot:     prog.GlobalSlot{Call: ci, Slot: si},
				TypeKind: slot.Type.Kind,
				TopArg:   slot.Path[0],
				Depth:    len(slot.Path) - 1,
				Absent:   slotArgs[si] == nil,
				// Access-path tokens (ABI register, struct offsets) share
				// the kernel-disassembly vocabulary, letting the model
				// align arguments with the blocks that inspect them.
				Tokens: kernel.SlotAccessTokens(call.Meta, si),
			}
			g.Vertices = append(g.Vertices, v)
			g.ArgVertices = append(g.ArgVertices, av)
			g.Slots = append(g.Slots, v.Slot)
			// Data flow: argument feeds its call.
			g.Edges = append(g.Edges, Edge{From: av, To: callVertex[ci], Kind: EArgInOut})
			// Resource flow: producing call feeds the argument.
			if ra, ok := slotArgs[si].(*prog.ResultArg); ok && ra.Ref >= 0 && ra.Ref < ci {
				g.Edges = append(g.Edges, Edge{From: callVertex[ra.Ref], To: av, Kind: EArgInOut})
			}
			// Argument ordering chain.
			if prevArg >= 0 {
				g.Edges = append(g.Edges, Edge{From: prevArg, To: av, Kind: EArgOrder})
			}
			prevArg = av
		}
	}

	// Coverage graph: one vertex per unique covered block, edges for unique
	// consecutive pairs, per call.
	covVertex := map[kernel.BlockID]int{}
	covered := trace.BlockSet{}
	addCov := func(id kernel.BlockID) int {
		if vi, ok := covVertex[id]; ok {
			return vi
		}
		vi := len(g.Vertices)
		blk := b.K.Block(id)
		g.Vertices = append(g.Vertices, Vertex{Kind: VCovered, Block: id, Tokens: blk.Tokens})
		covVertex[id] = vi
		covered.Add(id)
		return vi
	}
	seenEdge := map[trace.Edge]bool{}
	for ci, tr := range traces {
		if ci >= len(p.Calls) {
			break
		}
		var first, last int
		for i, id := range tr {
			vi := addCov(id)
			if i == 0 {
				first = vi
			}
			last = vi
			if i > 0 {
				e := trace.MakeEdge(tr[i-1], id)
				if !seenEdge[e] {
					seenEdge[e] = true
					g.Edges = append(g.Edges, Edge{From: covVertex[tr[i-1]], To: vi, Kind: ECoveredFlow})
				}
			}
		}
		if len(tr) > 0 && !b.DropCtxSwitch {
			g.Edges = append(g.Edges,
				Edge{From: callVertex[ci], To: first, Kind: ECtxSwitch},
				Edge{From: last, To: callVertex[ci], Kind: ECtxSwitch})
		}
	}

	// Alternative path entries: uncovered blocks one branch away.
	alts := b.An.Frontier(covered)
	if b.MaxAlternatives > 0 && len(alts) > b.MaxAlternatives {
		alts = alts[:b.MaxAlternatives]
	}
	altVertex := map[kernel.BlockID]int{}
	for _, alt := range alts {
		vi, ok := altVertex[alt.Entry]
		if !ok {
			vi = len(g.Vertices)
			kind := VAlternative
			if targetSet[alt.Entry] {
				kind = VTarget
			}
			blk := b.K.Block(alt.Entry)
			g.Vertices = append(g.Vertices, Vertex{Kind: kind, Block: alt.Entry, Tokens: blk.Tokens})
			altVertex[alt.Entry] = vi
		}
		g.Edges = append(g.Edges, Edge{From: covVertex[alt.From], To: vi, Kind: EUncoveredFlow})
	}

	// Targets that are not on the visible frontier still appear, isolated.
	for _, t := range targets {
		if _, ok := altVertex[t]; ok {
			continue
		}
		if _, ok := covVertex[t]; ok {
			continue
		}
		vi := len(g.Vertices)
		blk := b.K.Block(t)
		g.Vertices = append(g.Vertices, Vertex{Kind: VTarget, Block: t, Tokens: blk.Tokens})
		altVertex[t] = vi
	}

	return g
}
