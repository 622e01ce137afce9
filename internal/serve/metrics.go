package serve

import (
	"github.com/repro/snowplow/internal/obs"
)

// serveMetrics is the server's instrument bundle. It is built even when no
// registry is attached: obs instruments are nil-safe, so the disabled path
// costs one nil check per update and call sites stay branch-free.
type serveMetrics struct {
	queries, succeeded, failed, rejected *obs.Counter
	retries, timeouts                    *obs.Counter
	batches, batchedQueries              *obs.Counter

	injDropped, injTransient, injCorrupt *obs.Counter

	tenantAdmitted *obs.Counter // queries past admission control, all tenants

	latency    *obs.Histogram // terminal query latency (queue+inference+retries)
	batchSize  *obs.Histogram // queries per forward pass
	queueWait  *obs.Histogram // attempt time spent queued before a worker picked it up
	queueDepth *obs.Gauge     // pending attempts at last worker pickup

	tenantCount *obs.Gauge // registered tenants
}

// newServeMetrics registers the serving instruments on reg (nil reg yields
// nil instruments — the zero-cost disabled path).
func newServeMetrics(reg *obs.Registry) *serveMetrics {
	return &serveMetrics{
		queries:        reg.Counter("serve_queries_total", "queries", "accepted inference queries"),
		succeeded:      reg.Counter("serve_succeeded_total", "queries", "queries with a delivered prediction"),
		failed:         reg.Counter("serve_failed_total", "queries", "queries terminally failed (retries exhausted, close)"),
		rejected:       reg.Counter("serve_rejected_total", "queries", "submissions refused outright (server closed)"),
		retries:        reg.Counter("serve_retries_total", "attempts", "extra attempts beyond each query's first"),
		timeouts:       reg.Counter("serve_timeouts_total", "attempts", "attempts whose reply was lost (injected drops)"),
		batches:        reg.Counter("serve_batches_total", "passes", "model forward passes"),
		batchedQueries: reg.Counter("serve_batched_queries_total", "queries", "queries served in passes of two or more"),
		injDropped:     reg.Counter("serve_inj_dropped_total", "faults", "injected dropped replies"),
		injTransient:   reg.Counter("serve_inj_transient_total", "faults", "injected transient errors"),
		injCorrupt:     reg.Counter("serve_inj_corrupt_total", "faults", "injected corrupt predictions"),
		tenantAdmitted: reg.Counter("serve_tenant_admitted_total", "queries", "queries past admission control, all tenants"),
		tenantCount:    reg.Gauge("serve_tenant_count", "tenants", "registered tenants"),
		latency:        reg.Histogram("serve_latency_ns", "ns", "terminal query latency (queue+inference+retries)", obs.LatencyBucketsNs()),
		batchSize:      reg.Histogram("serve_batch_size", "queries", "queries packed into one union-graph forward pass", obs.SizeBuckets()),
		queueWait:      reg.Histogram("serve_queue_wait_ns", "ns", "attempt wait in the worker queue", obs.LatencyBucketsNs()),
		queueDepth:     reg.Gauge("serve_queue_depth", "attempts", "queued attempts at last worker pickup"),
	}
}

// registerPullGauges exposes the builder-cache, tensor-pool and block-memo
// counters (owned by qgraph, nn and pmm respectively) as pull-model gauges,
// read at snapshot time rather than pushed from their hot paths.
func (s *Server) registerPullGauges(reg *obs.Registry) {
	if s.builder.Cache != nil {
		reg.GaugeFunc("qgraph_cache_hits", "hits", "graph-encoding cache hits", func() int64 {
			return s.builder.Cache.Stats().Hits
		})
		reg.GaugeFunc("qgraph_cache_misses", "misses", "graph-encoding cache misses", func() int64 {
			return s.builder.Cache.Stats().Misses
		})
		reg.GaugeFunc("qgraph_cache_len", "graphs", "graphs currently cached", func() int64 {
			return int64(s.builder.Cache.Stats().Len)
		})
	}
	reg.GaugeFunc("nn_pool_borrows", "slabs", "tensor-arena slab borrows", func() int64 {
		return s.Model().PoolStats().Borrows
	})
	reg.GaugeFunc("nn_pool_reuses", "slabs", "borrows satisfied from the free list", func() int64 {
		return s.Model().PoolStats().Reuses
	})
	reg.GaugeFunc("nn_pool_idle", "slabs", "slabs parked in the free lists", func() int64 {
		return int64(s.Model().PoolStats().Idle)
	})
	reg.GaugeFunc("serve_block_memo_hits", "blocks", "token blocks served without running the block encoder (current model generation)", func() int64 {
		return s.Model().BlockMemoStats().Hits
	})
	reg.GaugeFunc("serve_block_memo_misses", "blocks", "token sequences run through the block encoder (current model generation)", func() int64 {
		return s.Model().BlockMemoStats().Misses
	})
	reg.GaugeFunc("serve_block_memo_entries", "blocks", "token sequences held by the serving model's block-encoder memo", func() int64 {
		return int64(s.Model().BlockMemoStats().Entries)
	})
	reg.GaugeFunc("nn_infer_fused_linear", "kernels", "fused linear+bias(+ReLU) kernel invocations", func() int64 {
		return s.Model().InferProfile().FusedLinear
	})
	reg.GaugeFunc("nn_infer_fused_attention", "kernels", "fused attention kernel invocations", func() int64 {
		return s.Model().InferProfile().FusedAttention
	})
	reg.GaugeFunc("nn_infer_fused_addnorm", "kernels", "fused add+LayerNorm kernel invocations", func() int64 {
		return s.Model().InferProfile().FusedAddNorm
	})
	reg.GaugeFunc("nn_infer_kernel_ns", "ns", "total inference-kernel time (requires kernel profiling)", func() int64 {
		return s.Model().InferProfile().KernelNs()
	})
}
