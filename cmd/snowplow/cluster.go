// Cluster mode: the same binary runs as either the campaign coordinator
// (-coordinator N) or a shard worker (-worker). The coordinator owns the
// authoritative corpus, coverage and journal and periodically writes an
// atomic checkpoint; if the checkpoint file already exists at startup the
// campaign resumes from it — onto any worker count — with output identical
// to the uninterrupted run (DESIGN.md §8).
//
//	snowplow -coordinator 2 -cluster-addr 127.0.0.1:9035 \
//	    -mode snowplow -model pmm.model -checkpoint campaign.ckpt
//	snowplow -worker -cluster-addr 127.0.0.1:9035   # run twice

package main

import (
	"bytes"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"github.com/repro/snowplow/internal/cfa"
	"github.com/repro/snowplow/internal/cluster"
	"github.com/repro/snowplow/internal/faultinject"
	"github.com/repro/snowplow/internal/fuzzer"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/nn"
	"github.com/repro/snowplow/internal/obs"
	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/rng"
)

// clusterFlags groups the distributed-campaign knobs.
type clusterFlags struct {
	worker          bool
	coordinator     int
	addr            string
	checkpoint      string
	checkpointEvery int64
	compress        int
	wanBandwidth    int64
	wanLatency      time.Duration
}

// runClusterWorker joins the coordinator at cf.addr and serves barrier
// steps until the campaign ends. -wan-bandwidth/-wan-latency shape the
// coordinator link with deterministic write stalls (the WAN stand-in used
// by the wire experiment).
func runClusterWorker(cf clusterFlags, workers int) error {
	nn.SetWorkers(workers)
	logger := log.New(os.Stderr, "worker: ", log.Ltime)
	logger.Printf("joining coordinator at %s", cf.addr)
	opts := cluster.WorkerOptions{
		ServeWorkers: workers,
		Fused:        true,
		Logf:         logger.Printf,
	}
	if cf.wanBandwidth > 0 || cf.wanLatency > 0 {
		logger.Printf("shaping coordinator link: %d B/s, +%v per write", cf.wanBandwidth, cf.wanLatency)
		opts.Dial = func(addr string) (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return faultinject.NewLink(conn, faultinject.LinkOptions{
				Bandwidth: cf.wanBandwidth,
				Latency:   cf.wanLatency,
			}), nil
		}
	}
	return cluster.RunWorker(cf.addr, opts)
}

// quantizeModelBytes re-encodes a float64 model checkpoint as the
// mixed-precision (int8 codes + dequantized float64) form.
func quantizeModelBytes(model []byte) ([]byte, error) {
	m, err := pmm.Load(bytes.NewReader(model))
	if err != nil {
		return nil, err
	}
	m.Freeze()
	if !m.Quantized() {
		if err := m.Quantize(); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	if err := m.SaveQuantized(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// runClusterCoordinator builds the campaign spec exactly like the
// single-host path (same seed recipe, same knobs), waits for
// cf.coordinator workers, and drives the campaign to completion. If the
// checkpoint file exists the campaign resumes from it instead of starting
// fresh.
func runClusterCoordinator(cf clusterFlags, mode, version, modelPath string, budget int64, seed uint64, nseeds, workers int, fallback float64, vms int, quant bool, obsAddr string, onf onlineFlags) error {
	// The MatMul pool also sets the online retrain's width.
	nn.SetWorkers(workers)
	k, err := kernel.Build(version)
	if err != nil {
		return err
	}
	fmt.Println(k)
	cfg := fuzzer.Config{
		Kernel: k, An: cfa.New(k), Seed: seed, Budget: budget,
		FallbackProb: fallback, VMs: vms,
		Journal: obs.NewJournal(1), // flag only: the coordinator owns the real journal
	}
	var model []byte
	switch mode {
	case "syzkaller":
		if onf.enabled {
			return fmt.Errorf("-online requires -mode snowplow")
		}
		cfg.Mode = fuzzer.ModeSyzkaller
	case "snowplow":
		cfg.Mode = fuzzer.ModeSnowplow
		if modelPath == "" {
			return fmt.Errorf("-mode snowplow requires -model")
		}
		if model, err = os.ReadFile(modelPath); err != nil {
			return err
		}
		if quant {
			// Quantization must be decided once, by the coordinator: the
			// model is re-encoded as a mixed-precision checkpoint, so every
			// worker loads identical dequantized weights (and the checkpoint's
			// model digest pins the quantized form). Worker-local flags
			// could not guarantee that.
			if model, err = quantizeModelBytes(model); err != nil {
				return fmt.Errorf("quantizing model: %w", err)
			}
			fmt.Println("model: int8-quantized for the cluster")
		}
		if oc := onf.config(); oc != nil {
			// The schedule travels in the campaign spec; the coordinator
			// trains and gates, then pushes accepted checkpoints to every
			// worker with the two-phase prep/commit frames.
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

	ccfg := cluster.Config{
		Spec:            cluster.SpecFromConfig(cfg, model),
		Workers:         cf.coordinator,
		Addr:            cf.addr,
		CheckpointPath:  cf.checkpoint,
		CheckpointEvery: cf.checkpointEvery,
		Compress:        cf.compress,
		Logf:            log.New(os.Stderr, "coordinator: ", log.Ltime).Printf,
	}
	var sampler *obs.Sampler
	if obsAddr != "" {
		reg := obs.NewRegistry()
		sampler = obs.NewSampler(reg, obs.DefaultSampleInterval)
		addr, shutdown, err := obs.Serve(obsAddr, reg, nil, sampler)
		if err != nil {
			return err
		}
		defer shutdown()
		fmt.Printf("observability: http://%s (metrics, timeseries, pprof)\n", addr)
		ccfg.Metrics = reg
	}

	var co *cluster.Coordinator
	if data, err := os.ReadFile(cf.checkpoint); cf.checkpoint != "" && err == nil {
		co, err = cluster.ResumeCoordinator(ccfg, data)
		if err != nil {
			return fmt.Errorf("resuming from %s: %w", cf.checkpoint, err)
		}
		fmt.Printf("resuming campaign from %s\n", cf.checkpoint)
	} else {
		if co, err = cluster.NewCoordinator(ccfg); err != nil {
			return err
		}
	}
	fmt.Printf("coordinator listening on %s, waiting for %d workers\n", co.Addr(), cf.coordinator)

	if sampler != nil {
		sampler.Start()
	}
	res, err := co.Run()
	if sampler != nil {
		sampler.Stop()
	}
	if err != nil {
		return err
	}

	// Single-buffer report, same convention as the single-host path.
	var out bytes.Buffer
	stats := res.Stats
	fmt.Fprintf(&out, "mode=%s kernel=%s budget=%d workers=%d\n", stats.Mode, version, budget, res.Workers)
	fmt.Fprintf(&out, "final: %d edges, %d executions, corpus %d\n",
		stats.FinalEdges, stats.Executions, stats.CorpusSize)
	for _, vm := range stats.VMs {
		fmt.Fprintf(&out, "vm %d: %d execs, %d new edges, %d queries, %d epochs\n",
			vm.VM, vm.Executions, vm.NewEdges, vm.Queries, vm.Epochs)
	}
	if cfg.Mode == fuzzer.ModeSnowplow {
		fmt.Fprintf(&out, "PMM: %d queries, %d predictions, %d failed, %d shed\n",
			stats.PMMQueries, stats.PMMPredictions, stats.PMMFailed, stats.PMMShed)
	}
	if cfg.Online != nil {
		fmt.Fprintf(&out, "online: %d retrains, %d swaps applied, %d skipped by the gate, serving model v%d\n",
			stats.ModelRetrains, stats.ModelSwaps, stats.ModelSwapsSkipped, stats.ModelVersion)
	}
	fmt.Fprintf(&out, "digests: corpus=%s cover=%s journal=%s\n",
		res.CorpusDigest, res.CoverDigest, res.JournalDigest)
	if res.Wire.TxWireBytes+res.Wire.RxWireBytes > 0 {
		fmt.Fprintf(&out, "wire: tx %d B (%d raw), rx %d B (%d raw), %d/%d workers compressed\n",
			res.Wire.TxWireBytes, res.Wire.TxRawBytes, res.Wire.RxWireBytes, res.Wire.RxRawBytes,
			res.Wire.CompressedWorkers, res.Workers)
	}
	if cf.checkpoint != "" {
		fmt.Fprintf(&out, "checkpoint: %s (every %d epochs)\n", cf.checkpoint, cf.checkpointEvery)
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
