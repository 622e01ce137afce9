// Package cluster scales a fuzzing campaign across processes. The campaign
// engine is fuzzer.Reconciler — the same one a single-host -vms N campaign
// runs over an in-process fuzzer.Shard; this package is its wire transport.
// One coordinator hosts the reconciler (authoritative corpus, coverage,
// journal and VM states); N workers each host a fuzzer.Shard (a subset of
// the campaign's VMs over a full corpus replica) and exchange epoch deltas
// over length-prefixed, optionally flate-compressed frames.
//
// Every barrier the coordinator broadcasts the previous merge's accepted
// entries, each worker applies them to its replica and fuzzes one SyncEvery
// slice, and the reconciler merges the returned deltas in ascending VM
// order — so a W-worker cluster is bit-identical per seed to a single host
// running Config.VMs workers, for the same observables the single-host
// guarantee covers (corpus, coverage, journal, counters; wall-clock waits
// and serving cache stats excluded). What the package adds to the engine is
// what a network needs: admission and the handshake, validation at the
// decode boundary, reassignment of a lost worker's VMs, a two-phase model
// push, and checkpoints that capture the full barrier state and resume
// onto any worker count with identical subsequent output.
package cluster

import (
	"bytes"
	"fmt"
	"sync"

	"github.com/repro/snowplow/internal/cfa"
	"github.com/repro/snowplow/internal/fuzzer"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/obs"
	"github.com/repro/snowplow/internal/online"
	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/serve"
)

// CampaignSpec is the self-contained description of a cluster campaign:
// everything a worker needs to reconstruct its fuzzer.Config locally. The
// model travels as its serialized checkpoint so each worker runs its own
// inference server — predictions depend only on the model and the query, so
// per-worker serving preserves determinism (the existing perf-knob
// invariance guarantees it).
type CampaignSpec struct {
	Mode          uint8 // 0 = syzkaller, 1 = snowplow
	KernelVersion string
	Seed          uint64
	Budget        int64
	TotalVMs      int // fleet size; equals the single-host Config.VMs
	SyncEvery     int64
	SampleEvery   int64
	FallbackProb  float64
	Journal       bool
	// Online* carry the continual-learning schedule (see online.Config);
	// OnlineEnabled false means a frozen model. Campaign-semantic: the
	// schedule changes what the campaign computes, so it travels in the spec
	// and is pinned by checkpoints. The values are stored normalized.
	OnlineEnabled          bool
	OnlineEvery            int64
	OnlineLag              int64
	OnlineMinCorpus        int
	OnlineMutationsPerBase int
	OnlineTrainEpochs      int
	OnlineTrainBatch       int
	SeedProgs              []string // serialized seed corpus
	Model                  []byte   // pmm checkpoint (Snowplow mode)
}

// OnlineConfig returns the spec's continual-learning schedule, or nil when
// the campaign serves a frozen model.
func (sp CampaignSpec) OnlineConfig() *online.Config {
	if !sp.OnlineEnabled {
		return nil
	}
	return &online.Config{
		Every:            sp.OnlineEvery,
		Lag:              sp.OnlineLag,
		MinCorpus:        sp.OnlineMinCorpus,
		MutationsPerBase: sp.OnlineMutationsPerBase,
		TrainEpochs:      sp.OnlineTrainEpochs,
		TrainBatch:       sp.OnlineTrainBatch,
	}
}

// FuzzerMode converts the wire mode tag.
func (sp CampaignSpec) FuzzerMode() fuzzer.Mode {
	if sp.Mode == 1 {
		return fuzzer.ModeSnowplow
	}
	return fuzzer.ModeSyzkaller
}

// SpecFromConfig builds the wire spec from a single-host campaign config
// plus the serialized model (nil outside Snowplow mode).
func SpecFromConfig(cfg fuzzer.Config, model []byte) CampaignSpec {
	sp := CampaignSpec{
		KernelVersion: cfg.Kernel.Version,
		Seed:          cfg.Seed,
		Budget:        cfg.Budget,
		TotalVMs:      cfg.VMs,
		SyncEvery:     cfg.SyncEvery,
		SampleEvery:   cfg.SampleEvery,
		FallbackProb:  cfg.FallbackProb,
		Journal:       cfg.Journal != nil,
		Model:         model,
	}
	if cfg.Mode == fuzzer.ModeSnowplow {
		sp.Mode = 1
	}
	if cfg.Online != nil {
		oc := cfg.Online.Normalized()
		sp.OnlineEnabled = true
		sp.OnlineEvery = oc.Every
		sp.OnlineLag = oc.Lag
		sp.OnlineMinCorpus = oc.MinCorpus
		sp.OnlineMutationsPerBase = oc.MutationsPerBase
		sp.OnlineTrainEpochs = oc.TrainEpochs
		sp.OnlineTrainBatch = oc.TrainBatch
	}
	for _, p := range cfg.SeedCorpus {
		sp.SeedProgs = append(sp.SeedProgs, p.Serialize())
	}
	return sp
}

// Runtime is a spec materialized into live campaign objects.
type Runtime struct {
	Kernel *kernel.Kernel
	An     *cfa.Analysis
	Server *serve.Server // non-nil only when requested in Snowplow mode
	Cfg    fuzzer.Config
}

// Materialize builds the seed corpus and — when needServer is set in
// Snowplow mode — a local inference server (NewServer) from the spec's
// model bytes, over the process's one kernel and analysis for the spec's
// version (kernelFor). fused routes that server through the fused inference
// kernels; it is a per-worker serving knob (fused predictions are
// bit-identical), so heterogeneous fleets stay deterministic. Whether the
// model serves at int8 precision is pinned by the model bytes themselves
// (a mixed-precision checkpoint decodes to the dequantized weights), never
// by a worker-local flag. The returned config's Journal is a non-recording
// sentinel when the spec journals (shard workers buffer events for the
// coordinator; they never write a journal of their own).
func (sp CampaignSpec) Materialize(needServer bool, serveWorkers int, fused bool) (*Runtime, error) {
	kp, err := kernelFor(sp.KernelVersion)
	if err != nil {
		return nil, err
	}
	k, an := kp.k, kp.an
	cfg := fuzzer.Config{
		Mode:         sp.FuzzerMode(),
		Kernel:       k,
		An:           an,
		Seed:         sp.Seed,
		Budget:       sp.Budget,
		VMs:          sp.TotalVMs,
		SyncEvery:    sp.SyncEvery,
		SampleEvery:  sp.SampleEvery,
		FallbackProb: sp.FallbackProb,
		Online:       sp.OnlineConfig(),
	}
	for _, text := range sp.SeedProgs {
		p, err := prog.Parse(k.Target, text)
		if err != nil {
			return nil, fmt.Errorf("cluster: bad seed program: %w", err)
		}
		cfg.SeedCorpus = append(cfg.SeedCorpus, p)
	}
	rt := &Runtime{Kernel: k, An: an}
	if sp.Mode == 1 && needServer {
		if rt.Server, err = sp.NewServer(serveWorkers, fused); err != nil {
			return nil, err
		}
		cfg.Server = rt.Server
	}
	if sp.Journal {
		cfg.Journal = obs.NewJournal(1) // sentinel: enables event buffering only
	}
	rt.Cfg = cfg
	return rt, nil
}

// NewServer builds the campaign's model server: the spec's model over its
// kernel on a fixed pool of workers (default 2), with no batching, no graph
// cache and the default queue. Materialize calls it for a TCP worker's
// private server, driveLocal for the one server a loopback fleet shares,
// one tenant per worker. Campaign queries wait for queue space and never
// time out, so no serving option can change what a campaign computes.
func (sp CampaignSpec) NewServer(workers int, fused bool) (*serve.Server, error) {
	kp, err := kernelFor(sp.KernelVersion)
	if err != nil {
		return nil, err
	}
	m, err := pmm.Load(bytes.NewReader(sp.Model))
	if err != nil {
		return nil, fmt.Errorf("cluster: loading model: %w", err)
	}
	if workers <= 0 {
		workers = 2
	}
	return serve.NewServerOpts(m, qgraph.NewBuilder(kp.k, kp.an), serve.Options{Workers: workers, Fused: fused}), nil
}

// Close releases the runtime's server, if any.
func (rt *Runtime) Close() {
	if rt.Server != nil {
		rt.Server.Close()
	}
}

// kernelPair bundles a built kernel with its control-flow analysis.
type kernelPair struct {
	k  *kernel.Kernel
	an *cfa.Analysis
}

// kernels memoizes kernelFor per kernel version. A Kernel and its Analysis
// hold no mutable state once built, so the coordinator, every in-process
// worker and the shared server of every campaign in the process read one
// pair instead of each building its own.
var kernels struct {
	mu    sync.Mutex
	pairs map[string]kernelPair
}

func kernelFor(version string) (kernelPair, error) {
	kernels.mu.Lock()
	defer kernels.mu.Unlock()
	if kp, ok := kernels.pairs[version]; ok {
		return kp, nil
	}
	k, err := kernel.Build(version)
	if err != nil {
		return kernelPair{}, fmt.Errorf("cluster: building kernel: %w", err)
	}
	kp := kernelPair{k: k, an: cfa.New(k)}
	if kernels.pairs == nil {
		kernels.pairs = map[string]kernelPair{}
	}
	kernels.pairs[version] = kp
	return kp, nil
}

// validateTraces rejects wire traces referencing blocks outside the kernel,
// so a corrupt or hostile delta cannot poison the corpus or crash the
// coverage recomputation.
func validateTraces(k *kernel.Kernel, traces [][]kernel.BlockID) error {
	n := kernel.BlockID(k.NumBlocks())
	for _, tr := range traces {
		for _, b := range tr {
			if b < 0 || b >= n {
				return fmt.Errorf("%w: block id %d out of range [0,%d)", ErrBadMessage, b, n)
			}
		}
	}
	return nil
}
