package pmm

import (
	"fmt"
	"io"
	"math"
	"sort"

	"github.com/repro/snowplow/internal/nn"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
)

// Config holds the model hyperparameters (the subject of §5.1's
// hyperparameter search).
type Config struct {
	// Dim is the hidden width of every component.
	Dim int
	// Layers is the number of message-passing rounds.
	Layers int
	// CallBuckets sizes the hashed syscall-name embedding (open vocabulary
	// across kernel versions).
	CallBuckets int
	// MaxTopArg and MaxDepth cap the argument position/depth embeddings.
	MaxTopArg int
	MaxDepth  int
	// UseAttention selects the self-attention token encoder; false falls
	// back to a mean-pooled token MLP (encoder ablation).
	UseAttention bool
	// Threshold is the MUTATE decision threshold on the sigmoid output;
	// tuned on the validation split.
	Threshold float64
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{
		Dim:          24,
		Layers:       2,
		CallBuckets:  128,
		MaxTopArg:    8,
		MaxDepth:     6,
		UseAttention: true,
		Threshold:    0.5,
	}
}

// Model is the Program Mutation Model.
type Model struct {
	Cfg   Config
	Vocab *Vocab

	// θ_TRANSFORMER: token encoder.
	tokEmb  *nn.Embedding
	tokAttn *nn.SelfAttention
	tokMLP  *nn.MLP

	// θ_Emb: vertex and edge feature embeddings.
	kindEmb   *nn.Embedding // vertex kind
	callEmb   *nn.Embedding // hashed syscall variant name
	typeEmb   *nn.Embedding // argument type kind
	topEmb    *nn.Embedding // top-level argument position
	depthEmb  *nn.Embedding // nesting depth
	absentEmb *nn.Embedding // 0 = present, 1 = absent

	// θ_GNN: per-layer, per-edge-kind, per-direction message transforms.
	edgeW [][]*nn.Linear // [layer][edgeKind*2]
	selfW []*nn.Linear
	norms []*nn.LayerNorm

	// Head: scores [h_arg ‖ h_targets] -> MUTATE logit.
	head *nn.MLP

	// pool backs the allocation-free inference path. Pool is internally
	// synchronized, so concurrent Predict/PredictBatch calls on a frozen
	// model share it safely.
	pool *nn.Pool

	// fused routes frozen forwards through the fused inference kernels
	// (EnableFused), bit-identical to the plain pooled forward — see
	// internal/nn's fused.go. quant holds the int8 codes after Quantize or a
	// mixed-precision checkpoint load, for SaveQuantized alone: the weights
	// above already hold the dequantized values (internal/nn's quant.go).
	fused bool
	quant nn.Quantized

	// blockMemo caches the token encoder's output per vocabulary-id
	// sequence. Only a fused frozen forward consults it, and everything that
	// changes what the encoder would compute (EnableFused, Quantize)
	// replaces it — see blockmemo.go.
	blockMemo *blockMemo
}

// PoolStats snapshots the inference tensor-pool traffic counters (the
// observability layer's pool-hit-rate gauges read these).
func (m *Model) PoolStats() nn.PoolStats {
	return m.pool.Stats()
}

// InferProfile snapshots the fused kernel counters (and, under
// nn.SetKernelProfiling, per-op kernel time) accumulated by this model's
// inference pool.
func (m *Model) InferProfile() nn.InferProfile {
	return m.pool.Profile()
}

// Fused reports whether the fused inference kernels are enabled.
func (m *Model) Fused() bool { return m.fused }

// Quantized reports whether the weights are int8-representable: rewritten
// by Quantize or loaded from a mixed-precision checkpoint.
func (m *Model) Quantized() bool { return m.quant != nil }

// linears visits every Linear layer in the model.
func (m *Model) linears(visit func(*nn.Linear)) {
	for _, l := range []*nn.Linear{m.tokAttn.Q, m.tokAttn.K, m.tokAttn.V, m.tokAttn.Out} {
		visit(l)
	}
	for _, l := range m.tokMLP.Layers {
		visit(l)
	}
	for li := range m.edgeW {
		for _, l := range m.edgeW[li] {
			visit(l)
		}
		visit(m.selfW[li])
	}
	for _, l := range m.head.Layers {
		visit(l)
	}
}

// EnableFused switches frozen forwards to the fused inference kernels,
// precomputing each Linear's transposed-weight cache. Requires a frozen
// model; outputs stay bit-identical to the unfused path.
func (m *Model) EnableFused() {
	if !m.frozen() {
		panic("pmm: EnableFused requires a frozen model")
	}
	m.linears(func(l *nn.Linear) { l.FreezeFused() })
	m.fused = true
	m.blockMemo = newBlockMemo()
}

// Quantize builds the per-tensor int8 encoding of every large parameter
// (linear weights and embedding tables; nn.QuantMinSize policy) and rewrites
// the float64 weights with their dequantized values — exactly what a load
// of the SaveQuantized bytes yields, so model outputs are reproducible per
// seed whether the weights were quantized here or arrived quantized.
// Requires a frozen model. Call at most once per checkpoint.
func (m *Model) Quantize() error {
	if !m.frozen() {
		panic("pmm: Quantize requires a frozen model")
	}
	params := m.Params()
	qz := nn.QuantizeParams(params, nn.QuantMinSize)
	if err := qz.ApplyDequantized(params); err != nil {
		return err
	}
	m.quant = qz
	if m.fused {
		// Transposed-weight caches were built from the pre-quantization
		// weights; rebuild them from the dequantized values.
		m.linears(func(l *nn.Linear) { l.FreezeFused() })
	}
	// Rows memoised so far were encoded with the pre-quantization weights.
	m.blockMemo = newBlockMemo()
	return nil
}

// NewModel builds a randomly initialized model.
func NewModel(r *rng.Rand, cfg Config, vocab *Vocab) *Model {
	d := cfg.Dim
	m := &Model{
		Cfg:       cfg,
		Vocab:     vocab,
		tokEmb:    nn.NewEmbedding(r, vocab.Size(), d),
		tokAttn:   nn.NewSelfAttention(r, d),
		tokMLP:    nn.NewMLP(r, d, d),
		kindEmb:   nn.NewEmbedding(r, 5, d),
		callEmb:   nn.NewEmbedding(r, cfg.CallBuckets, d),
		typeEmb:   nn.NewEmbedding(r, 10, d),
		topEmb:    nn.NewEmbedding(r, cfg.MaxTopArg+1, d),
		depthEmb:  nn.NewEmbedding(r, cfg.MaxDepth+1, d),
		absentEmb: nn.NewEmbedding(r, 2, d),
		head:      nn.NewMLP(r, 3*d, d, 1),
		pool:      nn.NewPool(),
		blockMemo: newBlockMemo(),
	}
	for l := 0; l < cfg.Layers; l++ {
		var kinds []*nn.Linear
		for k := 0; k < qgraph.NumEdgeKinds*2; k++ {
			kinds = append(kinds, nn.NewLinear(r, d, d))
		}
		m.edgeW = append(m.edgeW, kinds)
		m.selfW = append(m.selfW, nn.NewLinear(r, d, d))
		m.norms = append(m.norms, nn.NewLayerNorm(d))
	}
	return m
}

// Params returns the named parameter map (for optimizers and checkpoints).
func (m *Model) Params() map[string]*nn.Tensor {
	params := map[string]*nn.Tensor{}
	add := func(prefix string, l nn.Layer) {
		for i, p := range l.Params() {
			params[fmt.Sprintf("%s.%d", prefix, i)] = p
		}
	}
	add("tok_emb", m.tokEmb)
	add("tok_attn", m.tokAttn)
	add("tok_mlp", m.tokMLP)
	add("kind_emb", m.kindEmb)
	add("call_emb", m.callEmb)
	add("type_emb", m.typeEmb)
	add("top_emb", m.topEmb)
	add("depth_emb", m.depthEmb)
	add("absent_emb", m.absentEmb)
	for l := range m.edgeW {
		for k, lin := range m.edgeW[l] {
			add(fmt.Sprintf("edge.%d.%d", l, k), lin)
		}
		add(fmt.Sprintf("self.%d", l), m.selfW[l])
		add(fmt.Sprintf("norm.%d", l), m.norms[l])
	}
	add("head", m.head)
	return params
}

// ParamList returns the parameters in stable order for the optimizer.
func (m *Model) ParamList() []*nn.Tensor {
	params := m.Params()
	names := make([]string, 0, len(params))
	for n := range params {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*nn.Tensor, len(names))
	for i, n := range names {
		out[i] = params[n]
	}
	return out
}

// Freeze disables gradient tracking on all parameters (inference mode);
// forward passes then record no tape and are safe for concurrent use.
func (m *Model) Freeze() {
	for _, p := range m.Params() {
		p.UnrequireGrad()
	}
}

// newAliasedModel builds a replica that shares the master's weights (every
// parameter's Data slice is aliased) but owns private gradient storage.
// Data-parallel training workers forward/backward on replicas so tapes and
// gradients never collide, while a master Adam step instantly updates every
// replica. The caller must not use the replica while the master's weights
// are being written.
func newAliasedModel(m *Model) *Model {
	rep := NewModel(rng.New(0), m.Cfg, m.Vocab)
	src := m.Params()
	for name, p := range rep.Params() {
		p.Data = src[name].Data
	}
	return rep
}

// newEvalShadow builds a frozen weight-aliased replica for validation and
// threshold tuning during training: it sees every weight update of the
// master immediately and, being frozen, runs through the pooled inference
// path, which is bit-identical to the training-ops forward.
//
// A shadow (or any weight-aliased replica) must never be fused: EnableFused
// snapshots the weights twice — the transposed-weight caches and, through
// the block memo, whole encoder outputs — and the master's next Adam step
// would leave both describing weights that no longer exist. Unfused, every
// forward reads the aliased weights afresh.
func newEvalShadow(m *Model) *Model {
	shadow := newAliasedModel(m)
	shadow.Freeze()
	return shadow
}

// encodeBlockOps embeds a block's token sequence into a (1, Dim) tensor
// through the given op set.
func (m *Model) encodeBlockOps(ops nn.Ops, tokens []string) *nn.Tensor {
	ids := m.Vocab.Encode(tokens)
	if len(ids) == 0 {
		ids = []int{UnkID}
	}
	emb := m.tokEmb.ForwardOps(ops, ids)
	if m.Cfg.UseAttention {
		att := m.tokAttn.ForwardOps(ops, emb)
		ops.Recycle(emb)
		emb = att
	}
	mean := ops.MeanRows(emb)
	ops.Recycle(emb)
	out := m.tokMLP.ForwardOps(ops, mean)
	ops.Recycle(mean)
	return out
}

// Forward computes MUTATE logits for every argument vertex of the graph.
// The returned tensor has shape (len(g.ArgVertices), 1).
func (m *Model) Forward(g *qgraph.Graph) *nn.Tensor {
	return m.forwardMany(nn.TrainOps{}, []*qgraph.Graph{g})[0]
}

// forwardMany runs the GNN over a batch of query graphs packed into one
// union graph: vertex rows are concatenated with per-graph offsets, edges
// are bucketed with offset indices, and one shared message-passing pass
// covers the whole batch. Because every kernel in the pass (MatMul,
// LayerNorm, ScatterMean, ...) computes each output row from fixed inputs
// in a fixed order, each graph's rows come out bit-identical to a
// single-graph forward — batching changes throughput, never answers.
// The readout stays per graph (argument/target counts differ). Returned
// tensor i holds graph i's logits, shape (len(gs[i].ArgVertices), 1).
//
// Under an Infer op set every intermediate is recycled as soon as it is
// dead, so the pass runs in a near-constant set of pooled slabs. A fused
// model forwarding through the fused kernels takes forwardFused (plan.go),
// which computes the same bits; it reads the block memo, which is only valid
// behind EnableFused, hence m.fused.
func (m *Model) forwardMany(ops nn.Ops, gs []*qgraph.Graph) []*nn.Tensor {
	if f, ok := ops.(nn.FusedOps); ok && m.fused && f.FusionEnabled() {
		return m.forwardFused(f, gs)
	}

	// Vertex offsets of each graph within the union.
	offsets := make([]int, len(gs))
	total := 0
	for gi, g := range gs {
		offsets[gi] = total
		total += len(g.Vertices)
	}

	// addConsume folds b into acc, recycling both inputs.
	addConsume := func(acc, b *nn.Tensor) *nn.Tensor {
		out := ops.Add(acc, b)
		ops.Recycle(acc, b)
		return out
	}

	// Initial vertex states for every graph, in batch order: each vertex
	// runs its own embedding chain.
	targetIdx := make([][]int, len(gs)) // union indices of VTarget vertices
	rows := make([]*nn.Tensor, 0, total)
	for gi, g := range gs {
		off := offsets[gi]
		for vi := range g.Vertices {
			v := &g.Vertices[vi]
			h := m.kindEmb.ForwardOps(ops, []int{int(v.Kind)})
			switch v.Kind {
			case qgraph.VSyscall:
				h = addConsume(h, m.callEmb.ForwardOps(ops, []int{hashString(v.Name, m.Cfg.CallBuckets)}))
			case qgraph.VArg:
				top, depth, absent := m.clampArg(v)
				h = addConsume(h, m.typeEmb.ForwardOps(ops, []int{int(v.TypeKind)}))
				h = addConsume(h, m.topEmb.ForwardOps(ops, []int{top}))
				h = addConsume(h, m.depthEmb.ForwardOps(ops, []int{depth}))
				h = addConsume(h, m.absentEmb.ForwardOps(ops, []int{absent}))
				if len(v.Tokens) > 0 {
					// Access-path tokens share the kernel token embedding.
					h = addConsume(h, m.encodeBlockOps(ops, v.Tokens))
				}
			default:
				h = addConsume(h, m.encodeBlockOps(ops, v.Tokens))
				if v.Kind == qgraph.VTarget {
					targetIdx[gi] = append(targetIdx[gi], off+vi)
				}
			}
			rows = append(rows, h)
		}
	}
	state := ops.ConcatRows(rows)
	ops.Recycle(rows...)

	// Pre-index union edges by kind+direction once. Edges never cross
	// graph boundaries, so message passing cannot mix graphs. A reverse
	// bucket is its forward bucket with src and dst swapped, so the two share
	// storage, and a counting pass sizes all of it in one allocation.
	type edgeList struct{ src, dst []int }
	var perKind [qgraph.NumEdgeKinds]int
	nEdges := 0
	for _, g := range gs {
		nEdges += len(g.Edges)
		for _, e := range g.Edges {
			perKind[e.Kind]++
		}
	}
	edgeIdx := make([]int, 2*nEdges)
	buckets := make([]edgeList, qgraph.NumEdgeKinds*2)
	for k, n := range perKind {
		buckets[k] = edgeList{src: edgeIdx[:0:n], dst: edgeIdx[n : n : 2*n]}
		edgeIdx = edgeIdx[2*n:]
	}
	for gi, g := range gs {
		off := offsets[gi]
		for _, e := range g.Edges {
			b := &buckets[e.Kind]
			b.src = append(b.src, off+e.From)
			b.dst = append(b.dst, off+e.To)
		}
	}
	for k := 0; k < qgraph.NumEdgeKinds; k++ {
		buckets[k+qgraph.NumEdgeKinds] = edgeList{src: buckets[k].dst, dst: buckets[k].src}
	}

	// Message passing over the union graph.
	for l := 0; l < m.Cfg.Layers; l++ {
		agg := m.selfW[l].ForwardOps(ops, state)
		for k := range buckets {
			if len(buckets[k].src) == 0 {
				continue
			}
			srcRows := ops.Gather(state, buckets[k].src)
			msgs := m.edgeW[l][k].ForwardOps(ops, srcRows)
			ops.Recycle(srcRows)
			agg = addConsume(agg, ops.ScatterMean(msgs, buckets[k].dst, total))
			ops.Recycle(msgs)
		}
		act := ops.ReLU(agg)
		ops.Recycle(agg)
		next := m.norms[l].ForwardAddOps(ops, state, act)
		ops.Recycle(act, state)
		state = next
	}

	// Pairwise readout, per graph: score every (argument, target) pair and
	// keep each argument's best match. This lets the head align an
	// argument's position features directly against the register/offset
	// tokens of the specific target block that mentions them, instead of a
	// diluted mean over all targets.
	outs := make([]*nn.Tensor, len(gs))
	for gi, g := range gs {
		off := offsets[gi]
		nArgs := len(g.ArgVertices)
		argIdx := make([]int, nArgs)
		for i, a := range g.ArgVertices {
			argIdx[i] = off + a
		}
		args := ops.Gather(state, argIdx)
		if len(targetIdx[gi]) == 0 {
			outs[gi] = m.scoreNoTarget(ops, args)
			continue
		}
		tgts := ops.Gather(state, targetIdx[gi])
		bigArg := ops.RepeatEachRow(args, len(targetIdx[gi]))
		bigTgt := ops.TileRows(tgts, nArgs)
		ops.Recycle(args, tgts)
		// The elementwise product gives the head a direct similarity channel
		// between an argument's access-path embedding and the target context.
		prod := ops.Mul(bigArg, bigTgt)
		cat := ops.Concat(bigArg, bigTgt, prod)
		ops.Recycle(bigArg, bigTgt, prod)
		pairScores := m.head.ForwardOps(ops, cat)
		ops.Recycle(cat)
		outs[gi] = ops.MaxPerGroup(pairScores, nArgs, len(targetIdx[gi]))
		ops.Recycle(pairScores)
	}
	ops.Recycle(state)
	return outs
}

// clampArg returns an argument vertex's topEmb, depthEmb and absentEmb ids.
func (m *Model) clampArg(v *qgraph.Vertex) (top, depth, absent int) {
	top, depth = v.TopArg, v.Depth
	if top > m.Cfg.MaxTopArg {
		top = m.Cfg.MaxTopArg
	}
	if depth > m.Cfg.MaxDepth {
		depth = m.Cfg.MaxDepth
	}
	if v.Absent {
		absent = 1
	}
	return top, depth, absent
}

// scoreNoTarget scores a graph that has no desired target: its argument rows
// (consumed) against a zero context.
func (m *Model) scoreNoTarget(ops nn.Ops, args *nn.Tensor) *nn.Tensor {
	zero := ops.Zeros(args.Shape[0], 2*m.Cfg.Dim)
	cat := ops.Concat(args, zero)
	ops.Recycle(args, zero)
	out := m.head.ForwardOps(ops, cat)
	ops.Recycle(cat)
	return out
}

// frozen reports whether the model's parameters are outside differentiation
// (after Freeze); only then may the pooled inference path be used.
func (m *Model) frozen() bool {
	return !m.head.Layers[0].W.RequiresGrad()
}

// Predict returns the slots whose MUTATE probability exceeds the decision
// threshold, sorted by decreasing probability, along with all per-slot
// probabilities. If nothing crosses the threshold, the single
// highest-probability slot is returned (the fuzzer always needs a
// localization).
func (m *Model) Predict(g *qgraph.Graph) ([]prog.GlobalSlot, []float64) {
	slots, probs := m.PredictBatch([]*qgraph.Graph{g})
	return slots[0], probs[0]
}

// PredictBatch runs Predict over a batch of graphs in one union-graph
// forward pass (see forwardMany). Results are positional: slots[i] and
// probs[i] correspond to gs[i], and each is bit-identical to a standalone
// Predict(gs[i]) call. On a frozen model the pass runs through the pooled
// allocation-free path; otherwise it falls back to the autodiff ops.
func (m *Model) PredictBatch(gs []*qgraph.Graph) ([][]prog.GlobalSlot, [][]float64) {
	slots := make([][]prog.GlobalSlot, len(gs))
	probs := make([][]float64, len(gs))
	// Graphs without argument vertices have no slots to localize; skip them.
	live := make([]*qgraph.Graph, 0, len(gs))
	liveIdx := make([]int, 0, len(gs))
	for i, g := range gs {
		if g != nil && len(g.ArgVertices) > 0 {
			live = append(live, g)
			liveIdx = append(liveIdx, i)
		}
	}
	if len(live) == 0 {
		return slots, probs
	}
	if m.frozen() {
		in, done := m.inferOps()
		outs := m.forwardMany(in, live)
		for li, out := range outs {
			slots[liveIdx[li]], probs[liveIdx[li]] = m.pickSlots(live[li], out.Data)
		}
		done()
	} else {
		outs := m.forwardMany(nn.TrainOps{}, live)
		for li, out := range outs {
			slots[liveIdx[li]], probs[liveIdx[li]] = m.pickSlots(live[li], out.Data)
		}
	}
	return slots, probs
}

// inferOps picks the inference op set for a frozen forward: the fused
// kernels under EnableFused, the plain pooled path otherwise. Both produce
// bit-identical outputs, so the choice is purely a speed knob; a quantized
// model is served by the same two (its weights are ordinary float64).
func (m *Model) inferOps() (nn.Ops, func()) {
	if m.fused {
		in := nn.NewInferFused(m.pool)
		return in, in.Close
	}
	in := nn.NewInfer(m.pool)
	return in, in.Close
}

// pickSlots converts per-argument logits into the thresholded,
// probability-sorted slot list described on Predict.
func (m *Model) pickSlots(g *qgraph.Graph, logits []float64) ([]prog.GlobalSlot, []float64) {
	probs := make([]float64, len(g.ArgVertices))
	var pickedIdx []int
	best, bestP := 0, -1.0
	for i := range probs {
		probs[i] = sigmoid(logits[i])
		if probs[i] > bestP {
			best, bestP = i, probs[i]
		}
		if probs[i] >= m.Cfg.Threshold {
			pickedIdx = append(pickedIdx, i)
		}
	}
	if len(pickedIdx) == 0 {
		pickedIdx = append(pickedIdx, best)
	}
	sort.SliceStable(pickedIdx, func(a, b int) bool {
		return probs[pickedIdx[a]] > probs[pickedIdx[b]]
	})
	picked := make([]prog.GlobalSlot, len(pickedIdx))
	for i, idx := range pickedIdx {
		picked[i] = g.Slots[idx]
	}
	return picked, probs
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// Save writes config, vocabulary and weights.
func (m *Model) Save(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "snowplow-pmm v1 dim=%d layers=%d callbuckets=%d maxtop=%d maxdepth=%d attn=%t threshold=%g\n",
		m.Cfg.Dim, m.Cfg.Layers, m.Cfg.CallBuckets, m.Cfg.MaxTopArg, m.Cfg.MaxDepth, m.Cfg.UseAttention, m.Cfg.Threshold); err != nil {
		return err
	}
	if err := m.Vocab.Save(w); err != nil {
		return err
	}
	return nn.SaveParams(w, m.Params())
}

// SaveQuantized writes config, vocabulary and mixed-precision weights: int8
// codes for quantized tensors, float64 for the rest. The encoding is
// byte-stable, so the cluster's model SHA pins the quantized form. The model
// must have been Quantized first.
func (m *Model) SaveQuantized(w io.Writer) error {
	if m.quant == nil {
		return fmt.Errorf("pmm: SaveQuantized on a model without a quantization registry")
	}
	if _, err := fmt.Fprintf(w, "snowplow-pmm v1 dim=%d layers=%d callbuckets=%d maxtop=%d maxdepth=%d attn=%t threshold=%g\n",
		m.Cfg.Dim, m.Cfg.Layers, m.Cfg.CallBuckets, m.Cfg.MaxTopArg, m.Cfg.MaxDepth, m.Cfg.UseAttention, m.Cfg.Threshold); err != nil {
		return err
	}
	if err := m.Vocab.Save(w); err != nil {
		return err
	}
	return nn.SaveQuantParams(w, m.Params(), m.quant)
}

// Load reads a model written by Save.
func Load(r io.Reader) (*Model, error) {
	var cfg Config
	var attn bool
	// Read the single header line byte by byte (the vocab section follows
	// immediately and uses its own scanner).
	line, err := readLine(r)
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Sscanf(line, "snowplow-pmm v1 dim=%d layers=%d callbuckets=%d maxtop=%d maxdepth=%d attn=%t threshold=%g",
		&cfg.Dim, &cfg.Layers, &cfg.CallBuckets, &cfg.MaxTopArg, &cfg.MaxDepth, &attn, &cfg.Threshold); err != nil {
		return nil, fmt.Errorf("pmm: bad model header %q: %w", line, err)
	}
	cfg.UseAttention = attn
	vocab, err := loadVocabFrom(r)
	if err != nil {
		return nil, err
	}
	m := NewModel(rng.New(0), cfg, vocab)
	qz, err := nn.LoadParamsAuto(r, m.Params())
	if err != nil {
		return nil, err
	}
	// A mixed-precision checkpoint arrives with the float64 weights already
	// rewritten to their dequantized values; the codes are kept so the model
	// can be saved quantized again, byte for byte.
	m.quant = qz
	return m, nil
}

func readLine(r io.Reader) (string, error) {
	var buf []byte
	one := make([]byte, 1)
	for {
		if _, err := r.Read(one); err != nil {
			return "", err
		}
		if one[0] == '\n' {
			return string(buf), nil
		}
		buf = append(buf, one[0])
	}
}

// loadVocabFrom reads the vocab section without consuming past its end.
func loadVocabFrom(r io.Reader) (*Vocab, error) {
	header, err := readLine(r)
	if err != nil {
		return nil, err
	}
	var size int
	if _, err := fmt.Sscanf(header, "snowplow-vocab v1 size=%d", &size); err != nil {
		return nil, fmt.Errorf("pmm: bad vocab header %q", header)
	}
	v := &Vocab{ids: make(map[string]int, size)}
	for i := 0; i < size; i++ {
		tok, err := readLine(r)
		if err != nil {
			return nil, err
		}
		v.ids[tok] = len(v.tokens)
		v.tokens = append(v.tokens, tok)
	}
	if len(v.tokens) == 0 || v.tokens[0] != "<unk>" {
		return nil, fmt.Errorf("pmm: vocab missing <unk> sentinel")
	}
	return v, nil
}
