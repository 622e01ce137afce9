package pmm

import (
	"github.com/repro/snowplow/internal/nn"
	"github.com/repro/snowplow/internal/qgraph"
)

// The fused forward: everything a warm query costs beyond its matmuls is
// kept proportional to the edges and (argument, target) pairs it has.
//
// A forwardPlan holds what the fused forward derives from a graph alone, so a
// graph served from the cache pays for it once; batchIndex turns the plans of
// a batch into the union graph's index lists by offset-adding copies; and the
// forward itself aggregates only into the rows a bucket reaches
// (nn.FusedOps.ScatterMeanInto) and writes the head's pair input in one pass
// (PairRows). Every reply is bit-identical to the unfused forwardMany, which
// shares none of this: it is the oracle of training, golden replay and the
// benchmark's reply check, it runs on graphs that are forwarded once (a
// dataset's) as well as cached ones, and it must stay readable on its own.

// Sections of a plan's index slab. The first four are the graph's vertices
// by class, in the order vertexStateFused stacks the classes' rows; "ArgTok"
// is an argument with access-path tokens, which adds an encoder row to the
// plain argument chain.
const (
	secSys    = iota // VSyscall vertices
	secArg           // VArg vertices without tokens
	secArgTok        // VArg vertices with tokens
	secBlk           // VCovered, VAlternative and VTarget vertices

	secSysCall // callEmb id of each secSys vertex

	secArgType // typeEmb, topEmb, depthEmb, absentEmb ids of each secArg vertex
	secArgTop
	secArgDepth
	secArgAbsent

	secArgTokType // the same for secArgTok, plus the vertex's token block
	secArgTokTop
	secArgTokDepth
	secArgTokAbsent
	secArgTokBlock

	secBlkKind // kindEmb id and token block of each secBlk vertex
	secBlkBlock

	secTargets // VTarget vertices
	secArgs    // g.ArgVertices

	secEdgeSrc                                      // + kind: sources of the kind's edges, in g.Edges order
	secEdgeDst   = secEdgeSrc + qgraph.NumEdgeKinds // + kind: their destinations
	secBlockEnds = secEdgeDst + qgraph.NumEdgeKinds // token block b's memo key ends at blockKeys[ends[b]]
	numSections  = secBlockEnds + 1
)

// planKey is everything a plan read from the model that built it. A model
// takes a stored plan only when its own key is equal, so a cached graph that
// outlives a hot swap (every loaded generation has its own *Vocab) is
// re-planned rather than read with another model's ids.
type planKey struct {
	vocab                         *Vocab
	callBuckets, maxTop, maxDepth int
}

func (m *Model) planKey() planKey {
	return planKey{m.Vocab, m.Cfg.CallBuckets, m.Cfg.MaxTopArg, m.Cfg.MaxDepth}
}

// forwardPlan is the per-graph part of a fused forward's indexing: per-class
// vertex lists with their embedding ids resolved (call bucket, type, clamped
// top and depth, absent), the block memo keys with Vocab.ID applied, target
// and argument vertices, and per-kind edge endpoints — all in graph-local
// numbering, int32, in one exactly-sized slab (a cold query builds a plan it
// may use once, so the build allocates three objects, not a list per field).
// It is immutable once built and lives in the graph's derived-data slot: it
// is freed with the graph when the cache evicts it, and two workers
// forwarding one cached graph either share it or each build an equal one.
type forwardPlan struct {
	key       planKey
	slab      []int32
	start     [numSections + 1]int32
	blockKeys []byte // memo keys of the token blocks, back to back (appendBlockKey)
}

func (p *forwardPlan) sec(s int) []int32 { return p.slab[p.start[s]:p.start[s+1]] }

// verts is the graph's vertex count: the four vertex sections partition it.
func (p *forwardPlan) verts() int { return int(p.start[secSysCall]) }

func (p *forwardPlan) blocks() int { return len(p.sec(secBlockEnds)) }

// planFor returns g's forward plan for this model, building and storing it
// when the graph has none or has another model's.
func (m *Model) planFor(g *qgraph.Graph) *forwardPlan {
	if p, ok := g.Derived().(*forwardPlan); ok && p.key == m.planKey() {
		return p
	}
	p := m.buildPlan(g)
	g.SetDerived(p)
	return p
}

// buildPlan derives g's plan: one pass to count, one allocation per slab, one
// pass to fill.
func (m *Model) buildPlan(g *qgraph.Graph) *forwardPlan {
	p := &forwardPlan{key: m.planKey()}
	var n [numSections]int32
	keyIDs := 0 // an empty block still contributes one id (UnkID)
	for vi := range g.Vertices {
		v := &g.Vertices[vi]
		switch v.Kind {
		case qgraph.VSyscall:
			n[secSys]++
		case qgraph.VArg:
			if len(v.Tokens) == 0 {
				n[secArg]++
			} else {
				n[secArgTok]++
				keyIDs += len(v.Tokens)
			}
		default:
			n[secBlk]++
			keyIDs += max(len(v.Tokens), 1)
			if v.Kind == qgraph.VTarget {
				n[secTargets]++
			}
		}
	}
	n[secSysCall] = n[secSys]
	for s := secArgType; s <= secArgAbsent; s++ {
		n[s] = n[secArg]
	}
	for s := secArgTokType; s <= secArgTokBlock; s++ {
		n[s] = n[secArgTok]
	}
	n[secBlkKind], n[secBlkBlock] = n[secBlk], n[secBlk]
	n[secArgs] = int32(len(g.ArgVertices))
	var perKind [qgraph.NumEdgeKinds]int32 // its bound is the check on e.Kind
	for _, e := range g.Edges {
		perKind[e.Kind]++
	}
	copy(n[secEdgeSrc:], perKind[:])
	copy(n[secEdgeDst:], perKind[:])
	n[secBlockEnds] = n[secArgTok] + n[secBlk]

	var cur [numSections]int32 // next free slot of each section
	for s, c := range n {
		cur[s] = p.start[s]
		p.start[s+1] = p.start[s] + c
	}
	p.slab = make([]int32, p.start[numSections])
	p.blockKeys = make([]byte, 0, 4*keyIDs)
	put := func(s, v int) {
		p.slab[cur[s]] = int32(v)
		cur[s]++
	}
	// putBlock appends v's memo key and returns its block number.
	putBlock := func(v *qgraph.Vertex) int {
		if len(v.Tokens) == 0 {
			p.blockKeys = appendBlockKey(p.blockKeys, UnkID)
		}
		for _, tok := range v.Tokens {
			p.blockKeys = appendBlockKey(p.blockKeys, m.Vocab.ID(tok))
		}
		b := int(cur[secBlockEnds] - p.start[secBlockEnds])
		put(secBlockEnds, len(p.blockKeys))
		return b
	}
	for vi := range g.Vertices {
		v := &g.Vertices[vi]
		switch v.Kind {
		case qgraph.VSyscall:
			put(secSys, vi)
			put(secSysCall, hashString(v.Name, m.Cfg.CallBuckets))
		case qgraph.VArg:
			top, depth, absent := m.clampArg(v)
			if len(v.Tokens) == 0 {
				put(secArg, vi)
				put(secArgType, int(v.TypeKind))
				put(secArgTop, top)
				put(secArgDepth, depth)
				put(secArgAbsent, absent)
			} else {
				put(secArgTok, vi)
				put(secArgTokType, int(v.TypeKind))
				put(secArgTokTop, top)
				put(secArgTokDepth, depth)
				put(secArgTokAbsent, absent)
				put(secArgTokBlock, putBlock(v))
			}
		default:
			put(secBlk, vi)
			put(secBlkKind, int(v.Kind))
			put(secBlkBlock, putBlock(v))
			if v.Kind == qgraph.VTarget {
				put(secTargets, vi)
			}
		}
	}
	for _, a := range g.ArgVertices {
		put(secArgs, a)
	}
	for _, e := range g.Edges {
		put(secEdgeSrc+int(e.Kind), e.From)
		put(secEdgeDst+int(e.Kind), e.To)
	}
	return p
}

// batchIndex is the union graph's indexing for one batch: the plans' sections
// concatenated in batch order, vertex numbers shifted by each graph's row
// offset and block numbers by its block offset, in one exactly-sized slab.
// Copying (rather than pointing into the plans) is what lets one *Graph sit at
// two positions of a batch.
type batchIndex struct {
	plans  []*forwardPlan
	slab   []int
	start  [secBlockEnds + 1]int // union sections; secBlockEnds itself stays per plan
	blocks int                   // union token blocks

	perm             []int // union vertex → its row in the class-stacked matrix
	kindSys, kindArg []int // kindEmb ids of the syscall and argument chains
}

func (u *batchIndex) sec(s int) []int { return u.slab[u.start[s]:u.start[s+1]] }

// bucket returns the endpoints of union edge bucket k, numbered as Model.edgeW
// is: the edge kinds forward, then the same kinds reversed — a reverse bucket
// is its forward bucket with the ends swapped.
func (u *batchIndex) bucket(k int) (src, dst []int) {
	kind := k % qgraph.NumEdgeKinds
	src, dst = u.sec(secEdgeSrc+kind), u.sec(secEdgeDst+kind)
	if k >= qgraph.NumEdgeKinds {
		return dst, src
	}
	return src, dst
}

func (m *Model) newBatchIndex(gs []*qgraph.Graph) batchIndex {
	u := batchIndex{plans: make([]*forwardPlan, len(gs))}
	for gi, g := range gs {
		p := m.planFor(g)
		u.plans[gi] = p
		for s := 0; s < secBlockEnds; s++ {
			u.start[s+1] += len(p.sec(s))
		}
		u.blocks += p.blocks()
	}
	for s := 0; s < secBlockEnds; s++ {
		u.start[s+1] += u.start[s]
	}
	verts := u.start[secSysCall] // the four vertex sections partition the union's rows
	nSys := u.start[secSys+1] - u.start[secSys]
	nArg := max(u.start[secArg+1]-u.start[secArg], u.start[secArgTok+1]-u.start[secArgTok])
	indexed := u.start[secBlockEnds]
	u.slab = make([]int, indexed+verts+nSys+nArg)
	u.perm = u.slab[indexed : indexed+verts]
	u.kindSys = u.slab[indexed+verts:][:nSys]
	u.kindArg = u.slab[indexed+verts+nSys:]

	for s := 0; s < secBlockEnds; s++ {
		dst := u.sec(s)
		vertOff, blockOff := 0, 0
		for _, p := range u.plans {
			add := 0 // embedding ids
			switch {
			case s == secArgTokBlock || s == secBlkBlock:
				add = blockOff
			case s < secSysCall || s >= secTargets:
				add = vertOff
			}
			for i, v := range p.sec(s) {
				dst[i] = int(v) + add
			}
			dst = dst[len(p.sec(s)):]
			vertOff += p.verts()
			blockOff += p.blocks()
		}
	}
	// The four vertex sections back to back are the stacked matrix's row order.
	for row, v := range u.slab[:verts] {
		u.perm[v] = row
	}
	for i := range u.kindSys {
		u.kindSys[i] = int(qgraph.VSyscall)
	}
	for i := range u.kindArg {
		u.kindArg[i] = int(qgraph.VArg)
	}
	return u
}

// forwardFused is forwardMany through the fused kernels, for a frozen model
// behind EnableFused: the same union-graph pass, each reply bit-identical to
// the unfused one.
func (m *Model) forwardFused(f nn.FusedOps, gs []*qgraph.Graph) []*nn.Tensor {
	ar := f.Arena()
	u := m.newBatchIndex(gs)
	state := m.vertexStateFused(f, &u)

	// Message passing. The aggregation accumulates into agg in place, bucket
	// by bucket in the unfused order, and reaches only the rows a bucket's
	// edges end at. A row some bucket did not reach may hold a -0 where the
	// unfused chain, which adds a +0 row there, holds +0; ReLUInPlace maps
	// both to +0 before anything reads agg (see ScatterMeanInto).
	for l := 0; l < m.Cfg.Layers; l++ {
		agg := m.selfW[l].ForwardOps(f, state)
		for k := 0; k < 2*qgraph.NumEdgeKinds; k++ {
			src, dst := u.bucket(k)
			if len(src) == 0 {
				continue
			}
			srcRows := f.Gather(state, src)
			msgs := m.edgeW[l][k].ForwardOps(f, srcRows)
			ar.Recycle(srcRows)
			f.ScatterMeanInto(agg, msgs, dst)
			ar.Recycle(msgs)
		}
		f.ReLUInPlace(agg)
		next := m.norms[l].ForwardAddOps(f, state, agg)
		ar.Recycle(agg, state)
		state = next
	}

	// Pairwise readout per graph (see forwardMany); PairRows builds the
	// head's [arg ‖ target ‖ arg·target] input straight from the state rows.
	outs := make([]*nn.Tensor, len(gs))
	args, tgts := u.sec(secArgs), u.sec(secTargets)
	for gi, p := range u.plans {
		na, nt := len(p.sec(secArgs)), len(p.sec(secTargets))
		argIdx, tgtIdx := args[:na], tgts[:nt]
		args, tgts = args[na:], tgts[nt:]
		if len(tgtIdx) == 0 {
			outs[gi] = m.scoreNoTarget(f, f.Gather(state, argIdx))
			continue
		}
		cat := f.PairRows(state, argIdx, tgtIdx)
		pairScores := m.head.ForwardOps(f, cat)
		ar.Recycle(cat)
		outs[gi] = f.MaxPerGroup(pairScores, len(argIdx), len(tgtIdx))
		ar.Recycle(pairScores)
	}
	ar.Recycle(state)
	return outs
}

// vertexStateFused builds the initial union vertex-state matrix through the
// fused kernels. Instead of one embedding chain and one token-encoder pass
// per vertex, it batches every step across vertices of the same class: the
// token blocks the model has not encoded before run through a single
// ragged-attention encoder (one big gather, batched Q/K/V/Out projections,
// per-block attention inside the kernel) and the rest come out of the block
// memo (blockmemo.go), every embedding table is gathered once for all its
// consumers, and the per-class sums apply the same per-row add order as the
// per-vertex chain. Every row is bit-identical to the unfused construction
// — the batched kernels are row-independent — at a small fraction of the
// kernel launches.
func (m *Model) vertexStateFused(f nn.FusedOps, u *batchIndex) *nn.Tensor {
	ar := f.Arena()

	// All token blocks → (blocks, dim): memo rows, and the ragged encoder
	// over the sequences the memo has not seen.
	var blockOuts *nn.Tensor
	if u.blocks > 0 {
		blockOuts = m.encodeBlocksMemo(f, u.plans, u.blocks)
	}

	argChain := func(first int) *nn.Tensor {
		n := len(u.sec(first))
		h := m.kindEmb.ForwardOps(f, u.kindArg[:n])
		m.typeEmb.ForwardAddOps(f, h, u.sec(first))
		m.topEmb.ForwardAddOps(f, h, u.sec(first+1))
		m.depthEmb.ForwardAddOps(f, h, u.sec(first+2))
		m.absentEmb.ForwardAddOps(f, h, u.sec(first+3))
		return h
	}

	// Per-class batched chains, stacked in section order, then one
	// permutation gather into union order. Each row of cat is the same sum,
	// in the same order, as the per-vertex chain would produce.
	var parts [4]*nn.Tensor
	np := 0
	if len(u.sec(secSys)) > 0 {
		h := m.kindEmb.ForwardOps(f, u.kindSys)
		m.callEmb.ForwardAddOps(f, h, u.sec(secSysCall))
		parts[np] = h
		np++
	}
	if len(u.sec(secArg)) > 0 {
		parts[np] = argChain(secArgType)
		np++
	}
	if len(u.sec(secArgTok)) > 0 {
		h := argChain(secArgTokType)
		f.GatherAddInto(h, blockOuts, u.sec(secArgTokBlock))
		parts[np] = h
		np++
	}
	if len(u.sec(secBlk)) > 0 {
		h := m.kindEmb.ForwardOps(f, u.sec(secBlkKind))
		f.GatherAddInto(h, blockOuts, u.sec(secBlkBlock))
		parts[np] = h
		np++
	}
	if blockOuts != nil {
		ar.Recycle(blockOuts)
	}
	cat := f.ConcatRows(parts[:np])
	ar.Recycle(parts[:np]...)
	state := f.Gather(cat, u.perm)
	ar.Recycle(cat)
	return state
}
