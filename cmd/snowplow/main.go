// Command snowplow fuzzes a synthetic kernel in either the Syzkaller
// baseline mode or the PMM-guided Snowplow mode, printing the coverage time
// series and any crashes found.
//
// Usage:
//
//	snowplow -mode snowplow -kernel 6.8 -model pmm.model -budget 2000000
//	snowplow -mode syzkaller -kernel 6.9 -budget 2000000
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/repro/snowplow/internal/cfa"
	"github.com/repro/snowplow/internal/cluster"
	"github.com/repro/snowplow/internal/faultinject"
	"github.com/repro/snowplow/internal/fuzzer"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/nn"
	"github.com/repro/snowplow/internal/obs"
	"github.com/repro/snowplow/internal/online"
	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/serve"
)

// onlineFlags groups the continual-learning knobs: whether the campaign
// retrains on its own corpus and hot-swaps checkpoints at epoch barriers,
// and the retrain schedule (TRAINING.md). The retrain runs -workers wide.
type onlineFlags struct {
	enabled     bool
	every       int64
	lag         int64
	minCorpus   int
	mutations   int
	trainEpochs int
	trainBatch  int
}

// config resolves the flags into the campaign schedule, nil when -online is
// off. Zero-valued knobs take the online.Config defaults.
func (o onlineFlags) config() *online.Config {
	if !o.enabled {
		return nil
	}
	c := online.Config{
		Every:            o.every,
		Lag:              o.lag,
		MinCorpus:        o.minCorpus,
		MutationsPerBase: o.mutations,
		TrainEpochs:      o.trainEpochs,
		TrainBatch:       o.trainBatch,
	}.Normalized()
	return &c
}

func main() {
	var (
		mode      = flag.String("mode", "syzkaller", "fuzzer mode: syzkaller or snowplow")
		version   = flag.String("kernel", "6.8", "kernel version to fuzz (6.8, 6.9, 6.10)")
		modelPath = flag.String("model", "", "trained PMM checkpoint (required for -mode snowplow)")
		budget    = flag.Int64("budget", 2_000_000, "simulated execution budget (blocks)")
		seed      = flag.Uint64("seed", 1, "campaign seed")
		seeds     = flag.Int("seeds", 20, "number of generated seed programs")
		workers   = flag.Int("workers", 4, "inference worker goroutines (also sizes the MatMul worker pool and -online retrain width)")
		batch     = flag.Int("batch", 1, "inference micro-batch limit (1 = no batching)")
		cache     = flag.Int("cache", 1024, "graph-encoding LRU cache capacity (0 = disabled)")
		fallback  = flag.Float64("fallback", 0.1, "random-localization fallback probability")
		vms       = flag.Int("vms", 1, "simulated fuzzing VMs, run in lockstep epochs through the reconciler")
		quant     = flag.Bool("quant", false, "int8-quantize model weights before serving (reproducible per seed; coordinator re-encodes the model for workers)")
		faults    = flag.String("faults", "off", "inference fault model, e.g. drop=0.1,transient=0.2,corrupt=0.05,seed=7")
		obsAddr   string
		cf        clusterFlags
		tenants   int
		onf       onlineFlags
	)
	flag.BoolVar(&onf.enabled, "online", false,
		"continually retrain the model on the campaign's own corpus and hot-swap checkpoints at epoch barriers (requires -mode snowplow; see TRAINING.md)")
	flag.Int64Var(&onf.every, "online-every", 0,
		"retrain kickoff cadence in epoch barriers (0 = default 8)")
	flag.Int64Var(&onf.lag, "online-lag", 0,
		"barriers between a retrain kickoff and its hot swap (0 = default 2)")
	flag.IntVar(&onf.minCorpus, "online-min-corpus", 0,
		"minimum corpus entries before a retrain kicks off (0 = default 8)")
	flag.IntVar(&onf.mutations, "online-mutations", 0,
		"harvest mutations per corpus base when building retrain datasets (0 = default 24)")
	flag.IntVar(&onf.trainEpochs, "online-train-epochs", 0,
		"training epochs per retrain (0 = default 4)")
	flag.IntVar(&onf.trainBatch, "online-train-batch", 0,
		"retrain minibatch size (0 = default 8)")
	flag.IntVar(&tenants, "tenants", 1,
		"concurrent snowplow campaigns sharing one multi-tenant model server, served round-robin (1 = single campaign)")
	flag.BoolVar(&cf.worker, "worker", false,
		"run as a cluster shard worker: join the coordinator at -cluster-addr and exit when the campaign ends")
	flag.IntVar(&cf.coordinator, "coordinator", 0,
		"run as cluster coordinator and wait for this many workers (0 = single-process campaign)")
	flag.StringVar(&cf.addr, "cluster-addr", "127.0.0.1:9035",
		"cluster listen/dial address for -coordinator/-worker")
	flag.StringVar(&cf.checkpoint, "checkpoint", "",
		"coordinator checkpoint file; written atomically every -checkpoint-every epochs, resumed from if present")
	flag.Int64Var(&cf.checkpointEvery, "checkpoint-every", 16,
		"epoch barriers between checkpoints (with -coordinator and -checkpoint)")
	flag.IntVar(&cf.compress, "compress", 0,
		"coordinator: flate level (1-9) for cluster frame compression; 0 = uncompressed")
	flag.Int64Var(&cf.wanBandwidth, "wan-bandwidth", 0,
		"worker: shape the coordinator link to this many bytes/sec (deterministic write stalls; 0 = unshaped)")
	flag.DurationVar(&cf.wanLatency, "wan-latency", 0,
		"worker: add this fixed delay to every coordinator-link write (with -wan-bandwidth; 0 = none)")
	flag.StringVar(&obsAddr, "obs", "",
		"observability endpoint address, e.g. :6060 (serves /metrics, /journal, /timeseries, /debug/pprof; empty = disabled)")
	flag.Parse()
	var err error
	switch {
	case cf.worker:
		err = runClusterWorker(cf, *workers)
	case cf.coordinator > 0:
		err = runClusterCoordinator(cf, *mode, *version, *modelPath, *budget, *seed, *seeds, *workers, *fallback, *vms, *quant, obsAddr, onf)
	default:
		err = run(*mode, *version, *modelPath, *budget, *seed, *seeds, *workers, *batch, *cache, *fallback, *vms, *quant, *faults, obsAddr, tenants, onf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "snowplow:", err)
		os.Exit(1)
	}
}

func run(mode, version, modelPath string, budget int64, seed uint64, nseeds, workers, batch, cache int, fallback float64, vms int, quant bool, faults, obsAddr string, tenants int, onf onlineFlags) error {
	tcfgs, err := serve.ParseTenants(tenants)
	if err != nil {
		return err
	}
	// Size the MatMul worker pool alongside the inference pool; results are
	// bit-identical for any worker count.
	nn.SetWorkers(workers)
	k, err := kernel.Build(version)
	if err != nil {
		return err
	}
	fmt.Println(k)
	an := cfa.New(k)

	cfg := fuzzer.Config{
		Kernel: k, An: an, Seed: seed, Budget: budget,
		FallbackProb: fallback,
		VMs:          vms,
	}

	// Observability is strictly opt-in: without -obs the campaign carries
	// nil Metrics/Journal, the fuzz loop's timed sites cost one nil check
	// each and the reconciler publishes nothing.
	var (
		reg     *obs.Registry
		journal *obs.Journal
		sampler *obs.Sampler
	)
	if obsAddr != "" {
		reg = obs.NewRegistry()
		journal = obs.NewJournal(obs.DefaultJournalCap)
		sampler = obs.NewSampler(reg, obs.DefaultSampleInterval)
		addr, shutdown, err := obs.Serve(obsAddr, reg, journal, sampler)
		if err != nil {
			return err
		}
		defer shutdown()
		fmt.Printf("observability: http://%s (metrics, journal, timeseries, pprof)\n", addr)
		cfg.Metrics = reg
		cfg.Journal = journal
	}
	// Online campaigns always journal: the model_train / model_swap records
	// are part of the replayable output, and the end-of-run digest line is
	// computed from them.
	if onf.enabled && journal == nil {
		journal = obs.NewJournal(obs.DefaultJournalCap)
		cfg.Journal = journal
	}
	switch mode {
	case "syzkaller":
		if len(tcfgs) > 1 {
			return fmt.Errorf("-tenants requires -mode snowplow")
		}
		if onf.enabled {
			return fmt.Errorf("-online requires -mode snowplow")
		}
		cfg.Mode = fuzzer.ModeSyzkaller
	case "snowplow":
		cfg.Mode = fuzzer.ModeSnowplow
		if modelPath == "" {
			return fmt.Errorf("-mode snowplow requires -model")
		}
		f, err := os.Open(modelPath)
		if err != nil {
			return err
		}
		m, err := pmm.Load(f)
		f.Close()
		if err != nil {
			return err
		}
		fault, err := faultinject.ParseSpec(faults)
		if err != nil {
			return err
		}
		opts := serve.Options{
			Workers:       workers,
			BatchSize:     batch,
			Metrics:       reg,
			Quant:         quant,
			KernelProfile: true,
		}
		if fault.Enabled() {
			opts.Fault = fault
			fmt.Printf("fault model: %s\n", fault)
		}
		builder := qgraph.NewBuilder(k, an)
		if cache > 0 {
			builder.WithCache(cache)
		}
		srv := serve.NewServerOpts(m, builder, opts)
		defer srv.Close()
		cfg.Server = srv
		if len(tcfgs) > 1 {
			if onf.enabled {
				return fmt.Errorf("-online is incompatible with -tenants (each campaign would retrain the shared model)")
			}
			return runTenantCampaigns(cfg, srv, tcfgs, workers, seed, nseeds, k, sampler)
		}
		if oc := onf.config(); oc != nil {
			cfg.Online = oc
			fmt.Printf("online learning: retrain every %d barriers, swap lag %d (see TRAINING.md)\n", oc.Every, oc.Lag)
		}
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}

	g := prog.NewGenerator(k.Target)
	r := rng.New(seed + 0x5eed)
	for i := 0; i < nseeds; i++ {
		cfg.SeedCorpus = append(cfg.SeedCorpus, g.Generate(r, 2+r.Intn(3)))
	}

	if sampler != nil {
		sampler.Start()
	}
	f := fuzzer.New(cfg)
	stats, err := f.Run()
	if sampler != nil {
		sampler.Stop()
	}
	if err != nil {
		return err
	}

	// The whole end-of-run report is assembled in one buffer and written
	// with a single call, so its lines — the per-VM breakdown especially —
	// can never interleave with output from goroutines that outlive the
	// campaign (the obs HTTP server, late serving logs).
	var out bytes.Buffer
	fmt.Fprintf(&out, "mode=%s kernel=%s budget=%d\n", stats.Mode, version, budget)
	fmt.Fprintf(&out, "%12s %10s\n", "cost", "edges")
	step := len(stats.Series) / 20
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(stats.Series); i += step {
		p := stats.Series[i]
		fmt.Fprintf(&out, "%12d %10d\n", p.Cost, p.Edges)
	}
	fmt.Fprintf(&out, "final: %d edges, %d executions, corpus %d\n",
		stats.FinalEdges, stats.Executions, stats.CorpusSize)
	if len(stats.VMs) > 1 {
		for _, vm := range stats.VMs {
			fmt.Fprintf(&out, "vm %d: %d execs, %d new edges, %d queries, %d epochs, queue wait %v\n",
				vm.VM, vm.Executions, vm.NewEdges, vm.Queries, vm.Epochs,
				time.Duration(vm.QueueWaitNs).Round(time.Millisecond))
		}
		// The coordinator's report prints the same line: a fleet lands on
		// the same digests whichever transport carries its barriers.
		fmt.Fprintf(&out, "digests: corpus=%s cover=%s", cluster.CorpusDigest(f.Corpus()), cluster.CoverDigest(f.Corpus()))
		if journal != nil {
			fmt.Fprintf(&out, " journal=%s", cluster.JournalDigest(journal.Events()))
		}
		out.WriteByte('\n')
	}
	if cfg.Mode == fuzzer.ModeSnowplow {
		fmt.Fprintf(&out, "PMM: %d queries, %d predictions, %d failed, %d shed, %d invalid slots\n",
			stats.PMMQueries, stats.PMMPredictions, stats.PMMFailed,
			stats.PMMShed, stats.PMMInvalidSlots)
		ss := cfg.Server.Stats()
		fmt.Fprintf(&out, "serving: %d ok / %d failed of %d queries, %d retries, %d timeouts\n",
			ss.Succeeded, ss.Failed, ss.Queries, ss.Retries, ss.Timeouts)
		fmt.Fprintf(&out, "batching: %d passes, %d batched queries, avg batch %.2f (fill %.0f%%); graph cache: %d hits, %d misses\n",
			ss.Batches, ss.BatchedQueries, ss.AvgBatchSize, 100*ss.BatchFill, ss.CacheHits, ss.CacheMisses)
		kp := ss.Kernel
		fmt.Fprintf(&out, "inference: quant=%v; kernels: %d linear, %d attention, %d add+norm\n",
			ss.Quantized, kp.FusedLinear, kp.FusedAttention, kp.FusedAddNorm)
		if kp.KernelNs() > 0 {
			fmt.Fprintf(&out, "kernel time: %v total (linear %v, attention %v, norm %v)\n",
				time.Duration(kp.KernelNs()).Round(time.Microsecond),
				time.Duration(kp.FusedLinearNs).Round(time.Microsecond),
				time.Duration(kp.AttentionNs).Round(time.Microsecond),
				time.Duration(kp.NormNs).Round(time.Microsecond))
		}
		if ss.InjDropped+ss.InjTransient+ss.InjCorrupt > 0 {
			fmt.Fprintf(&out, "injected: %d dropped, %d transient, %d corrupt\n",
				ss.InjDropped, ss.InjTransient, ss.InjCorrupt)
		}
		if cfg.Online != nil {
			fmt.Fprintf(&out, "online: %d retrains, %d swaps applied, %d skipped by the gate, serving model v%d\n",
				stats.ModelRetrains, stats.ModelSwaps, stats.ModelSwapsSkipped, stats.ModelVersion)
			// The digest line is the replay fingerprint: two same-seed
			// -online runs must print it identically (TRAINING.md).
			fmt.Fprintf(&out, "online digests: corpus=%s journal=%s\n",
				cluster.CorpusDigest(f.Corpus()), cluster.JournalDigest(journal.Events()))
		}
	}
	if journal != nil {
		fmt.Fprintf(&out, "journal: %d events retained, %d dropped\n", journal.Len(), journal.Dropped())
	}
	if len(stats.Crashes) > 0 {
		fmt.Fprintf(&out, "\ncrashes (%d unique):\n", len(stats.Crashes))
		for _, c := range stats.Crashes {
			fmt.Fprintf(&out, "  [cost %d] %s\n", c.Cost, c.Spec.Title)
		}
	}
	_, err = os.Stdout.Write(out.Bytes())
	return err
}
