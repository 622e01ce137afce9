// Loopback helpers: run a whole cluster (coordinator + N workers) inside
// one process over 127.0.0.1 sockets. The determinism and fault suites, the
// bench harness and the CI smoke all drive campaigns through these.
//
// In Snowplow mode the loopback cluster is also where serving multiplexing
// lives: instead of N private model replicas, driveLocal loads the spec's
// model once into one multi-tenant serve.Server and hands each in-process
// worker its own tenant. Predictions depend only on the model bytes and the
// query, so shared serving is bit-identical to private serving — the
// determinism digests don't move — while the model's weights, graph cache
// and tensor arenas are paid for once. TCP workers (RunWorker from another
// process) still materialize a private server from the spec; a handle can't
// cross the wire.

package cluster

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"time"

	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/serve"
)

// RunLocal runs a fresh cluster campaign with workers in-process workers.
// Worker errors are ignored when the coordinator completes (a worker lost
// late in the campaign is part of normal churn); the coordinator's error is
// authoritative.
func RunLocal(cfg Config, workers int, wopts WorkerOptions) (*Result, error) {
	return RunLocalOpts(cfg, uniformOpts(workers, wopts))
}

// RunLocalOpts is RunLocal with per-worker options: worker i runs with
// wopts[i], so a single fleet can mix configurations — shaped links beside
// unshaped ones, fused beside unfused, own inference surface beside the
// shared server.
// The worker count is len(wopts).
func RunLocalOpts(cfg Config, wopts []WorkerOptions) (*Result, error) {
	cfg.Workers = len(wopts)
	co, err := NewCoordinator(cfg)
	if err != nil {
		return nil, err
	}
	return driveLocal(co, cfg.Spec, wopts)
}

// ResumeLocal resumes a checkpointed campaign onto a fresh local cluster;
// the worker count may differ from the checkpointed run's.
func ResumeLocal(cfg Config, checkpoint []byte, workers int, wopts WorkerOptions) (*Result, error) {
	return ResumeLocalOpts(cfg, checkpoint, uniformOpts(workers, wopts))
}

// ResumeLocalOpts is ResumeLocal with per-worker options (see RunLocalOpts).
func ResumeLocalOpts(cfg Config, checkpoint []byte, wopts []WorkerOptions) (*Result, error) {
	cfg.Workers = len(wopts)
	co, err := ResumeCoordinator(cfg, checkpoint)
	if err != nil {
		return nil, err
	}
	return driveLocal(co, co.Spec(), wopts)
}

func uniformOpts(workers int, wopts WorkerOptions) []WorkerOptions {
	per := make([]WorkerOptions, workers)
	for i := range per {
		per[i] = wopts
	}
	return per
}

// sharedServer builds the multi-tenant model server for an in-process
// Snowplow cluster: one server, one tenant per worker. Sizing mirrors
// Materialize — the whole fleet's prediction window fits every tenant's
// queue, so a fault-free campaign never degrades; the tenant quota default
// (2× queue) is likewise never reached by a well-behaved shard.
func sharedServer(sp CampaignSpec, workers int, wopts WorkerOptions) (*serve.Server, []*serve.Tenant, error) {
	m, err := pmm.Load(bytes.NewReader(sp.Model))
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: loading shared model: %w", err)
	}
	k, err := kernelFor(sp.KernelVersion)
	if err != nil {
		return nil, nil, err
	}
	serveWorkers := wopts.ServeWorkers
	if serveWorkers <= 0 {
		serveWorkers = 2
	}
	vms := sp.TotalVMs
	if vms <= 0 {
		vms = 1
	}
	pending := sp.MaxPending
	if pending <= 0 {
		pending = 8
	}
	queue := vms*pending*2 + serveWorkers*8
	srv := serve.NewServerOpts(m, qgraph.NewBuilder(k.k, k.an), serve.Options{
		Workers:   serveWorkers,
		QueueSize: queue,
		Deadline:  30 * time.Second,
		Fused:     wopts.Fused,
	})
	tenants := make([]*serve.Tenant, workers)
	for i := range tenants {
		t, err := srv.Tenant(serve.TenantConfig{Name: "worker" + strconv.Itoa(i)})
		if err != nil {
			srv.Close()
			return nil, nil, err
		}
		tenants[i] = t
	}
	return srv, tenants, nil
}

func driveLocal(co *Coordinator, sp CampaignSpec, wopts []WorkerOptions) (*Result, error) {
	addr := co.Addr()
	workers := len(wopts)
	perWorker := append([]WorkerOptions(nil), wopts...) // callers keep their slice
	// Workers that do not bring their own inference surface share one
	// multi-tenant server, one tenant each.
	var shared []int
	for i, w := range perWorker {
		if w.Inference == nil {
			shared = append(shared, i)
		}
	}
	if sp.Mode == 1 && len(shared) > 0 {
		srv, tenants, err := sharedServer(sp, len(shared), perWorker[shared[0]])
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		for j, i := range shared {
			perWorker[i].Inference = tenants[j]
		}
	}
	var wg sync.WaitGroup
	workerErrs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErrs[i] = RunWorker(addr, perWorker[i])
		}(i)
	}
	res, err := co.Run()
	wg.Wait()
	if err != nil {
		for i, werr := range workerErrs {
			if werr != nil {
				return nil, fmt.Errorf("%w (worker %d: %v)", err, i, werr)
			}
		}
		return nil, err
	}
	return res, nil
}
