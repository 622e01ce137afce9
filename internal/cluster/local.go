// Loopback helpers: run a whole cluster (coordinator + N workers) inside
// one process over 127.0.0.1 sockets. The determinism and fault suites, the
// bench harness and the CI smoke all drive campaigns through these.
//
// In Snowplow mode the loopback cluster is also where serving multiplexing
// lives: instead of N private model replicas, driveLocal builds the spec's
// server once (CampaignSpec.NewServer) and hands each in-process worker its
// own tenant. Predictions depend only on the model bytes and the query, so
// shared serving is bit-identical to private serving — the determinism
// digests don't move — while the model's weights and tensor arenas are paid
// for once. TCP workers (RunWorker from another process) still materialize
// a private server from the same method; a handle can't cross the wire.

package cluster

import (
	"fmt"
	"strconv"
	"sync"

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
// unshaped ones, own inference surface beside the shared server.
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
		first := perWorker[shared[0]]
		srv, err := sp.NewServer(first.ServeWorkers)
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		for j, i := range shared {
			t, err := srv.Tenant(serve.TenantConfig{Name: "worker" + strconv.Itoa(j)})
			if err != nil {
				return nil, err
			}
			perWorker[i].Inference = t
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
