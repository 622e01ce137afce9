package nn

import "sync/atomic"

// Kernel profiling for the inference hot path. Counts of fused kernel
// invocations are always collected (plain integer bumps on an Infer-local
// struct, flushed to the pool on Close); per-op kernel *time* is
// gated behind SetKernelProfiling because it costs two time.Now calls per
// op. serve.Server enables it whenever a metrics registry is attached and
// exposes the numbers as nn_infer_* pull gauges and in its end-of-run Stats.

// kernelProfiling gates the time.Now calls around inference kernels.
var kernelProfiling atomic.Bool

// SetKernelProfiling toggles per-op kernel timing for every Infer in the
// process. Off (the default), timing fields of InferProfile stay zero and
// the only cost is one atomic load per op.
func SetKernelProfiling(on bool) { kernelProfiling.Store(on) }

// InferProfile is a snapshot of a pool's accumulated inference-kernel
// activity: how many fused kernels ran, and — when kernel profiling is
// enabled — how long each kernel class spent, in nanoseconds.
type InferProfile struct {
	// FusedLinear counts fused linear(+bias+ReLU) kernel invocations.
	FusedLinear    int64
	FusedAttention int64
	FusedAddNorm   int64

	// Per-class kernel time; zero unless SetKernelProfiling(true).
	FusedLinearNs int64
	AttentionNs   int64
	NormNs        int64
	// MatMulNs and SoftmaxNs are always 0: every inference matmul and
	// softmax runs inside a fused kernel and is timed with it. They remain
	// for readers that still report them.
	MatMulNs, SoftmaxNs int64
}

// KernelNs sums the per-class kernel time.
func (p InferProfile) KernelNs() int64 {
	return p.FusedLinearNs + p.AttentionNs + p.NormNs
}

// inferCounters is the Infer-local (single-goroutine, unsynchronized)
// accumulator behind InferProfile.
type inferCounters struct {
	fusedLinear, fusedAttention, fusedAddNorm int64
	fusedLinearNs, attentionNs, normNs        int64
}

// profileAtomics is the pool-side aggregate, written at Infer.Close.
type profileAtomics struct {
	fusedLinear, fusedAttention, fusedAddNorm atomic.Int64
	fusedLinearNs, attentionNs, normNs        atomic.Int64
}

// addProfile folds an Infer's local counters into the pool aggregate.
func (p *Pool) addProfile(c *inferCounters) {
	if *c == (inferCounters{}) {
		return
	}
	p.prof.fusedLinear.Add(c.fusedLinear)
	p.prof.fusedAttention.Add(c.fusedAttention)
	p.prof.fusedAddNorm.Add(c.fusedAddNorm)
	p.prof.fusedLinearNs.Add(c.fusedLinearNs)
	p.prof.attentionNs.Add(c.attentionNs)
	p.prof.normNs.Add(c.normNs)
	*c = inferCounters{}
}

// Profile snapshots the pool's accumulated inference-kernel activity.
func (p *Pool) Profile() InferProfile {
	return InferProfile{
		FusedLinear:    p.prof.fusedLinear.Load(),
		FusedAttention: p.prof.fusedAttention.Load(),
		FusedAddNorm:   p.prof.fusedAddNorm.Load(),
		FusedLinearNs:  p.prof.fusedLinearNs.Load(),
		AttentionNs:    p.prof.attentionNs.Load(),
		NormNs:         p.prof.normNs.Load(),
	}
}
