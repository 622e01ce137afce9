package pmm

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"github.com/repro/snowplow/internal/nn"
)

// blockMemo caches the block token encoder (θ_TRANSFORMER) of one frozen
// Model: vocabulary-id sequence → the encoder's Dim-wide output row.
//
// The key is content, not kernel.BlockID: the encoder sees nothing but the
// id sequence, so two blocks (or argument access paths) with equal ids — on
// this kernel version or another one served by the same model — share a row,
// and every out-of-vocabulary token collapses to UnkID exactly as it does in
// the encoder's input.
//
// A memoised row is the row the batched encoder would compute, bit for bit:
// every kernel of the encoder (embedding gather, Q/K/V/Out projections,
// per-segment attention, add+LayerNorm, ragged mean, MLP) computes an output
// row from that row's own segment alone, in a fixed order — the same
// row-independence that already makes PredictBatch(gs)[i] equal
// Predict(gs[i]) — so which other sequences shared the batch that first
// computed a row cannot be observed.
//
// Weights are the other input, so the memo lives and dies with its Model's
// weight snapshot: Freeze creates it, Quantize and the eval shadow's
// re-snapshot replace it, a hot swap serves a new Model, and training never
// reaches it (TrainOps takes the per-vertex encodeBlockOps chain, the
// independent oracle). Its size is
// bounded by the distinct token sequences of the kernels the model serves:
// kernel 6.8 has 4 367 distinct block sequences plus its argument access
// paths, at about 300 B each (Dim float64s, the key, map overhead) ≈ 1.3 MB;
// 6 000 random queries touch 2 652 of them.
type blockMemo struct {
	mu   sync.RWMutex
	rows map[string][]float64 // key: 4 little-endian bytes per id; rows are never written after insert

	hits, misses atomic.Int64
}

func newBlockMemo() *blockMemo {
	return &blockMemo{rows: map[string][]float64{}}
}

// BlockMemoStats counts the block-encoder memo's traffic: Hits are
// token-bearing vertices whose encoding was not computed (found in the memo,
// or a repeat of a sequence already in the same batch), Misses are sequences
// run through the encoder, Entries is the number of sequences stored.
type BlockMemoStats struct {
	Hits, Misses int64
	Entries      int
}

// BlockMemoStats snapshots the block-encoder memo counters. They stay zero
// on a model that is not frozen.
func (m *Model) BlockMemoStats() BlockMemoStats {
	bm := m.blockMemo
	bm.mu.RLock()
	entries := len(bm.rows)
	bm.mu.RUnlock()
	return BlockMemoStats{Hits: bm.hits.Load(), Misses: bm.misses.Load(), Entries: entries}
}

// appendBlockKey appends one vocabulary id to a memo key.
func appendBlockKey(key []byte, id int) []byte {
	return binary.LittleEndian.AppendUint32(key, uint32(id))
}

// encodeBlocksMemo returns the (blocks, Dim) encoder outputs of the plans'
// token blocks, in batch order (each plan packs its blocks' keys back to back
// — see forwardPlan). Rows already in the memo are copied out under the
// shared lock; the distinct missing sequences run through the ragged encoder
// in one batch and are then published. Concurrent forwards may encode the
// same missing sequence twice — both results are the same bits, the first
// one stored wins.
func (m *Model) encodeBlocksMemo(in *nn.Infer, plans []*forwardPlan, blocks int) *nn.Tensor {
	bm := m.blockMemo
	dim := m.Cfg.Dim
	out := in.Zeros(blocks, dim)

	var (
		missIdx  map[string]int // distinct missing sequence → its row in the miss batch
		flat     []int          // ids of the miss batch, ragged
		bounds   []int          // ... sequence s is flat[bounds[s]:bounds[s+1]]
		fillRow  []int          // out rows waiting for a miss-batch row ...
		fillFrom []int          // ... and which one
	)
	bm.mu.RLock()
	i := 0 // out row
	for _, p := range plans {
		start := int32(0)
		for _, end := range p.sec(secBlockEnds) {
			key := p.blockKeys[start:end]
			start = end
			row, ok := bm.rows[string(key)]
			if ok {
				copy(out.Data[i*dim:(i+1)*dim], row)
				i++
				continue
			}
			mi, seen := missIdx[string(key)]
			if !seen {
				if missIdx == nil {
					missIdx = map[string]int{}
					bounds = []int{0}
				}
				mi = len(missIdx)
				missIdx[string(key)] = mi
				for j := 0; j < len(key); j += 4 {
					flat = append(flat, int(binary.LittleEndian.Uint32(key[j:])))
				}
				bounds = append(bounds, len(flat))
			}
			fillRow = append(fillRow, i)
			fillFrom = append(fillFrom, mi)
			i++
		}
	}
	bm.mu.RUnlock()
	bm.hits.Add(int64(blocks - len(missIdx)))
	if len(missIdx) == 0 {
		return out
	}
	bm.misses.Add(int64(len(missIdx)))

	enc := m.encodeRagged(in, flat, bounds)
	for n, i := range fillRow {
		copy(out.Data[i*dim:(i+1)*dim], enc.Data[fillFrom[n]*dim:(fillFrom[n]+1)*dim])
	}
	stored := append([]float64(nil), enc.Data...) // enc's slab goes back to the pool
	in.Recycle(enc)
	bm.mu.Lock()
	for key, mi := range missIdx {
		if _, ok := bm.rows[key]; !ok {
			bm.rows[key] = stored[mi*dim : (mi+1)*dim : (mi+1)*dim]
		}
	}
	bm.mu.Unlock()
	return out
}

// encodeRagged runs the token encoder over a ragged batch of id sequences
// (sequence s is flat[bounds[s]:bounds[s+1]]) through the fused kernels and
// returns one Dim-wide row per sequence.
func (m *Model) encodeRagged(in *nn.Infer, flat, bounds []int) *nn.Tensor {
	emb := m.tokEmb.ForwardInfer(in, flat)
	if m.Cfg.UseAttention {
		att := m.tokAttn.ForwardRaggedInfer(in, emb, bounds)
		in.Recycle(emb)
		emb = att
	}
	mean := in.RaggedMeanRows(emb, bounds)
	in.Recycle(emb)
	out := m.tokMLP.ForwardInfer(in, mean)
	in.Recycle(mean)
	return out
}
