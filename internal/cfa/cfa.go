// Package cfa performs static control-flow analysis over a synthetic
// kernel, playing the role Angr plays in the paper (§4): recovering the
// control-flow graph, identifying "alternative path entry" blocks reachable
// within one not-taken branch from a test's coverage (§3.2), and computing
// block distances for directed fuzzing.
package cfa

import (
	"cmp"
	"slices"
	"sort"

	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/trace"
)

// Alternative is an uncovered block one branch away from covered code.
type Alternative struct {
	// Entry is the uncovered alternative-path entry block.
	Entry kernel.BlockID
	// From is the covered branch block whose other successor Entry is.
	From kernel.BlockID
	// Taken reports whether Entry is From's taken (true) or not-taken
	// (false) successor.
	Taken bool
}

// Analysis holds precomputed CFG indexes for one kernel.
type Analysis struct {
	K *kernel.Kernel

	preds map[kernel.BlockID][]kernel.BlockID
}

// New builds the analysis (successor inversion) for a kernel.
func New(k *kernel.Kernel) *Analysis {
	a := &Analysis{K: k, preds: make(map[kernel.BlockID][]kernel.BlockID, k.NumBlocks())}
	for i := range k.Blocks {
		b := &k.Blocks[i]
		for _, succ := range successors(b) {
			a.preds[succ] = append(a.preds[succ], b.ID)
		}
	}
	return a
}

func successors(b *kernel.Block) []kernel.BlockID {
	switch b.Kind {
	case kernel.BlockBody:
		return []kernel.BlockID{b.Next}
	case kernel.BlockBranch:
		return []kernel.BlockID{b.Taken, b.NotTaken}
	default:
		return nil
	}
}

// Successors returns the static successors of a block.
func (a *Analysis) Successors(id kernel.BlockID) []kernel.BlockID {
	return successors(a.K.Block(id))
}

// Predecessors returns the static predecessors of a block.
func (a *Analysis) Predecessors(id kernel.BlockID) []kernel.BlockID {
	return a.preds[id]
}

// Frontier returns the alternative path entries of a coverage set: for
// every covered branch block, each uncovered successor, in deterministic
// order. These are the candidate targets a mutation could newly reach with
// a single flipped branch (§3.2's red nodes).
func (a *Analysis) Frontier(covered trace.BlockSet) []Alternative {
	return a.AppendFrontier(nil, covered)
}

// AppendFrontier appends the Frontier of covered to dst and returns the
// extended slice, so a caller that computes many frontiers can reuse one
// buffer.
func (a *Analysis) AppendFrontier(dst []Alternative, covered trace.BlockSet) []Alternative {
	start := len(dst)
	covered.ForEach(func(id kernel.BlockID) {
		b := a.K.Block(id)
		if b.Kind != kernel.BlockBranch {
			return
		}
		if !covered.Has(b.Taken) {
			dst = append(dst, Alternative{Entry: b.Taken, From: id, Taken: true})
		}
		if !covered.Has(b.NotTaken) {
			dst = append(dst, Alternative{Entry: b.NotTaken, From: id, Taken: false})
		}
	})
	slices.SortFunc(dst[start:], func(x, y Alternative) int {
		if c := cmp.Compare(x.From, y.From); c != 0 {
			return c
		}
		return cmp.Compare(x.Entry, y.Entry)
	})
	return dst
}

// Unreached is the distance reported for blocks that cannot reach (or be
// reached from) the query block.
const Unreached = 1 << 30

// DistancesTo computes, for every block, the minimum number of CFG edges
// from that block to target (BFS over reversed edges). Directed fuzzers use
// this as the seed-selection metric.
func (a *Analysis) DistancesTo(target kernel.BlockID) []int {
	dist := make([]int, a.K.NumBlocks())
	for i := range dist {
		dist[i] = Unreached
	}
	dist[target] = 0
	queue := []kernel.BlockID{target}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, p := range a.preds[cur] {
			if dist[p] > dist[cur]+1 {
				dist[p] = dist[cur] + 1
				queue = append(queue, p)
			}
		}
	}
	return dist
}

// MinDistance returns the smallest distance from any covered block to the
// target, given a distance table from DistancesTo.
func MinDistance(dist []int, covered trace.BlockSet) int {
	min := Unreached
	covered.ForEach(func(b kernel.BlockID) {
		if int(b) < len(dist) && dist[b] < min {
			min = dist[b]
		}
	})
	return min
}

// ReachableFrom returns all blocks reachable from entry, including entry.
func (a *Analysis) ReachableFrom(entry kernel.BlockID) []kernel.BlockID {
	seen := map[kernel.BlockID]bool{entry: true}
	queue := []kernel.BlockID{entry}
	var out []kernel.BlockID
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		out = append(out, cur)
		for _, s := range successors(a.K.Block(cur)) {
			if !seen[s] {
				seen[s] = true
				queue = append(queue, s)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HandlerOf returns the syscall variant whose handler contains the block,
// or "" if none (cached linear index built lazily would be overkill; the
// kernel's handlers partition blocks contiguously, so binary search works).
func (a *Analysis) HandlerOf(id kernel.BlockID) string {
	for name, h := range a.K.Handlers {
		for _, b := range h.Blocks {
			if b == id {
				return name
			}
		}
	}
	return ""
}

// DeepBlocks returns blocks whose distance from their handler entry is at
// least minDepth branch decisions — the "hard to reach" targets of Table 5.
func (a *Analysis) DeepBlocks(minDepth int) []kernel.BlockID {
	var out []kernel.BlockID
	for _, h := range a.K.Handlers {
		depth := map[kernel.BlockID]int{h.Entry: 0}
		queue := []kernel.BlockID{h.Entry}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			b := a.K.Block(cur)
			d := depth[cur]
			if b.Kind == kernel.BlockBranch {
				d++
			}
			for _, s := range successors(b) {
				if _, ok := depth[s]; !ok {
					depth[s] = d
					queue = append(queue, s)
				}
			}
		}
		for id, d := range depth {
			if d >= minDepth {
				out = append(out, id)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
