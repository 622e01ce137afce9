// Cluster online continual learning: a campaign that retrains and
// hot-swaps its model mid-flight lands on the same digests over every
// transport (the "online" row of TestCampaignDigests: the reconciler trains
// and gates, workers drain and swap on push). Here: checkpoints taken
// before, during and after swaps must resume to the identical final output,
// including restarting an in-flight retrain.

package cluster

import (
	"bytes"
	"testing"

	"github.com/repro/snowplow/internal/fuzzer"
	"github.com/repro/snowplow/internal/obs"
	"github.com/repro/snowplow/internal/online"
	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/serve"
)

// onlineTestConfig builds a Snowplow campaign with an aggressive retrain
// schedule over a private server loaded from the same bytes the cluster
// spec ships, so the single-host gate incumbent and every worker's serving
// model are byte-identical.
func onlineTestConfig(t *testing.T, seed uint64, budget int64) (fuzzer.Config, []byte, *serve.Server) {
	t.Helper()
	model := testModelBytes(t)
	m, err := pmm.Load(bytes.NewReader(model))
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServerOpts(m, qgraph.NewBuilder(testKernel, testAn), serve.Options{Workers: 2})
	cfg := baseConfig(seed, budget, 4)
	cfg.Mode = fuzzer.ModeSnowplow
	cfg.Server = srv
	cfg.Online = &online.Config{
		Every:            3,
		Lag:              2,
		MinCorpus:        2,
		MutationsPerBase: 4,
		TrainEpochs:      1,
		TrainBatch:       8,
	}
	return cfg, model, srv
}

func requireSwapActivity(t *testing.T, label string, res *Result) {
	t.Helper()
	if res.Stats.ModelRetrains == 0 {
		t.Fatalf("%s: campaign never kicked off a retrain", label)
	}
	if res.Stats.ModelSwaps == 0 {
		t.Fatalf("%s: no swap was applied mid-campaign (skipped=%d); the determinism claim is untested",
			label, res.Stats.ModelSwapsSkipped)
	}
	var swaps int
	for _, e := range res.Events {
		if e.Kind == obs.EventModelSwap {
			swaps++
		}
	}
	if swaps == 0 {
		t.Fatalf("%s: journal has no model_swap record", label)
	}
}

// TestClusterOnlineResumeThroughSwap checkpoints an online campaign every
// barrier window and resumes from checkpoints on both sides of (and
// inside) retrain windows: a checkpoint carrying a pending retrain must
// restart it from the same corpus snapshot and land the same swap at the
// same barrier, so every resumed run finishes byte-identical to the
// uninterrupted one, and its coordinator's registry — read by a sampler
// throughout — ends at the campaign's lifetime counts.
func TestClusterOnlineResumeThroughSwap(t *testing.T) {
	cfg, model, srv := onlineTestConfig(t, 46, 150_000)
	defer srv.Close()
	spec := SpecFromConfig(withJournalFlag(cfg), model)

	var checkpoints [][]byte
	full, err := RunLocal(Config{
		Spec:            spec,
		CheckpointEvery: 2,
		OnCheckpoint:    func(_ int64, data []byte) { checkpoints = append(checkpoints, data) },
	}, 2, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireSwapActivity(t, "full", full)
	if len(checkpoints) < 3 {
		t.Fatalf("only %d checkpoints captured", len(checkpoints))
	}

	// Pick checkpoints spread across the campaign — with Every=3, Lag=2 and
	// CheckpointEvery=2, some carry a pending retrain (kickoff journaled,
	// swap not yet applied) and some a freshly swapped model.
	var pending int
	step := len(checkpoints)/4 + 1
	for i := 0; i < len(checkpoints); i += step {
		ck, err := DecodeCheckpoint(checkpoints[i])
		if err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		if ck.OnlinePendingVersion > 0 {
			pending++
		}
		for _, workers := range []int{1, 2} {
			label := "resume-ck" + labelWorkers(i) + "-" + labelWorkers(workers)
			reg := obs.NewRegistry()
			var got *Result
			vals := sampleDuring(t, reg, func() {
				if got, err = ResumeLocal(Config{Spec: spec, Metrics: reg}, checkpoints[i], workers, WorkerOptions{}); err != nil {
					t.Fatalf("resume checkpoint %d on %d workers: %v", i, workers, err)
				}
			})
			requireSameResult(t, label, full, got)
			// A resumed coordinator publishes lifetime totals, online
			// counts included.
			requireCountersMatchStats(t, label, vals, got.Stats)
			for name, want := range map[string]int64{
				"online_retrains_total":      got.Stats.ModelRetrains,
				"online_swaps_total":         got.Stats.ModelSwaps,
				"online_swaps_skipped_total": got.Stats.ModelSwapsSkipped,
			} {
				if vals[name] != want {
					t.Errorf("%s: %s %d, want %d", label, name, vals[name], want)
				}
			}
		}
	}
	// The schedule guarantees in-flight retrains exist at some barriers; if
	// none of the sampled checkpoints carried one, the resume-through-swap
	// path was not exercised.
	if pending == 0 {
		for i, data := range checkpoints {
			ck, err := DecodeCheckpoint(data)
			if err != nil {
				t.Fatal(err)
			}
			if ck.OnlinePendingVersion == 0 {
				continue
			}
			pending++
			got, err := ResumeLocal(Config{Spec: spec}, data, 2, WorkerOptions{})
			if err != nil {
				t.Fatalf("resume pending checkpoint %d: %v", i, err)
			}
			requireSameResult(t, "resume-pending", full, got)
			break
		}
	}
	if pending == 0 {
		t.Fatal("no checkpoint carried an in-flight retrain; tighten the schedule")
	}
}
