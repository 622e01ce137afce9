package main

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/repro/snowplow/internal/fuzzer"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/obs"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/serve"
)

// Multi-campaign mode: -tenants N runs N concurrent Snowplow campaigns as
// weighted-fair tenants of the one shared model server built by run(). Each
// campaign gets its own seed corpus and campaign seed (base seed + index) so
// runs stay individually reproducible, while the serving layer multiplexes
// their inference through deficit-round-robin scheduling and per-tenant
// quotas onto the server's one pool of -workers.

// runTenantCampaigns registers one tenant per campaign on the shared server,
// runs all campaigns concurrently, and prints a per-campaign and per-tenant
// report. Sharing one obs registry across campaigns is safe: instrument
// registration is idempotent per name, so the counters aggregate.
func runTenantCampaigns(base fuzzer.Config, srv *serve.Server, tf tenantFlags, workers int, seed uint64, nseeds int, k *kernel.Kernel, sampler *obs.Sampler) error {
	tcfgs, err := serve.ParseTenants(tf.tenants, tf.weights, tf.quota)
	if err != nil {
		return err
	}
	handles := make([]*serve.Tenant, len(tcfgs))
	weights := make([]int, len(tcfgs))
	for i, tc := range tcfgs {
		if handles[i], err = srv.Tenant(tc); err != nil {
			return err
		}
		weights[i] = tc.Weight
	}
	fmt.Printf("multi-tenant: %d campaigns on one shared server (weights %v, quota %d, pool %d)\n",
		len(handles), weights, tf.quota, workers)

	n := len(handles)
	cfgs := make([]fuzzer.Config, n)
	for i := range cfgs {
		cfg := base
		cfg.Seed = seed + uint64(i)
		cfg.Server = handles[i]
		// Each campaign generates its own seed corpus from its own seed, so
		// campaign i is reproducible standalone (-seed seed+i, -tenants 1).
		g := prog.NewGenerator(k.Target)
		r := rng.New(cfg.Seed + 0x5eed)
		cfg.SeedCorpus = nil
		for j := 0; j < nseeds; j++ {
			cfg.SeedCorpus = append(cfg.SeedCorpus, g.Generate(r, 2+r.Intn(3)))
		}
		cfgs[i] = cfg
	}

	if sampler != nil {
		sampler.Start()
	}
	stats := make([]*fuzzer.Stats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i], errs[i] = fuzzer.New(cfgs[i]).Run()
		}(i)
	}
	wg.Wait()
	if sampler != nil {
		sampler.Stop()
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("campaign %d (tenant %s): %w", i, tcfgs[i].Name, err)
		}
	}

	// One buffer, one write: campaign goroutines are done but the obs HTTP
	// server may still log.
	var out bytes.Buffer
	var totalEdges, totalExecs, totalQueries int64
	for i, st := range stats {
		totalEdges += int64(st.FinalEdges)
		totalExecs = totalExecs + st.Executions
		totalQueries += st.PMMQueries
		fmt.Fprintf(&out, "campaign %d (tenant %s, seed %d): %d edges, %d execs, corpus %d, %d queries, %d shed, %d crashes\n",
			i, tcfgs[i].Name, cfgs[i].Seed,
			st.FinalEdges, st.Executions, st.CorpusSize, st.PMMQueries, st.PMMShed, len(st.Crashes))
	}
	fmt.Fprintf(&out, "fleet: %d edges total, %d executions, %d PMM queries across %d campaigns\n",
		totalEdges, totalExecs, totalQueries, n)

	fmt.Fprintf(&out, "%-10s %3s %10s %10s %8s %6s %6s %12s\n",
		"tenant", "w", "queries", "served", "batches", "quota", "shed", "mean wait")
	for _, ts := range srv.TenantStats() {
		if ts.Queries == 0 && ts.Name == "default" {
			continue // default tenant idle in multi-campaign mode
		}
		fmt.Fprintf(&out, "%-10s %3d %10d %10d %8d %6d %6d %12v\n",
			ts.Name, ts.Weight, ts.Queries, ts.Served, ts.Batches,
			ts.QuotaRejected, ts.Shed, ts.MeanQueueWait.Round(time.Microsecond))
	}

	ss := srv.Stats()
	fmt.Fprintf(&out, "serving: %d ok / %d failed of %d queries, error rate %.2f, healthy %v\n",
		ss.Succeeded, ss.Failed, ss.Queries, ss.ErrorRate, ss.Healthy)
	fmt.Fprintf(&out, "batching: %d passes, avg batch %.2f (fill %.0f%%); cache: %d hits, %d misses\n",
		ss.Batches, ss.AvgBatchSize, 100*ss.BatchFill, ss.CacheHits, ss.CacheMisses)
	for i, st := range stats {
		for _, c := range st.Crashes {
			fmt.Fprintf(&out, "crash [campaign %d, cost %d] %s\n", i, c.Cost, c.Spec.Title)
		}
	}
	_, err = os.Stdout.Write(out.Bytes())
	return err
}
