// Cluster metrics, registered into an obs.Registry when Config.Metrics is
// set. All constructors are nil-safe (a nil registry yields no-op
// instruments), matching the repo-wide observability convention.

package cluster

import "github.com/repro/snowplow/internal/obs"

type clusterMetrics struct {
	workers        *obs.Gauge
	epochs         *obs.Counter
	deltas         *obs.Counter
	reassignments  *obs.Counter
	checkpoints    *obs.Counter
	wireTx         *obs.Counter
	wireRx         *obs.Counter
	wireRaw        *obs.Counter
	checkpointSize *obs.Gauge
	modelPushes    *obs.Counter
}

func newClusterMetrics(reg *obs.Registry) *clusterMetrics {
	return &clusterMetrics{
		workers:        reg.Gauge("cluster_workers", "workers", "connected cluster workers"),
		epochs:         reg.Counter("cluster_epochs_total", "epochs", "epoch barriers merged by the coordinator"),
		deltas:         reg.Counter("cluster_deltas_total", "messages", "worker epoch deltas received"),
		reassignments:  reg.Counter("cluster_reassignments_total", "shards", "VM shards reassigned after worker loss"),
		checkpoints:    reg.Counter("cluster_checkpoints_total", "checkpoints", "campaign checkpoints written"),
		wireTx:         reg.Counter("cluster_wire_tx_bytes", "bytes", "on-the-wire bytes sent (after frame compression)"),
		wireRx:         reg.Counter("cluster_wire_rx_bytes", "bytes", "on-the-wire bytes received (after frame compression)"),
		wireRaw:        reg.Counter("cluster_wire_raw_bytes", "bytes", "frame payload bytes before compression, both directions"),
		checkpointSize: reg.Gauge("cluster_checkpoint_bytes", "bytes", "size of the most recent checkpoint"),
		modelPushes:    reg.Counter("cluster_model_pushes_total", "pushes", "accepted model swaps pushed fleet-wide"),
	}
}
