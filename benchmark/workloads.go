package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/repro/snowplow/internal/cluster"
	"github.com/repro/snowplow/internal/corpus"
	"github.com/repro/snowplow/internal/fuzzer"
	"github.com/repro/snowplow/internal/nn"
	"github.com/repro/snowplow/internal/obs"
	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/serve"
)

// usage is the process's resource consumption at one instant.
type usage struct {
	cpu   time.Duration // user + system
	alloc uint64        // bytes allocated, cumulative
	gcs   uint32
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage fails only on a bad argument; a zero reading then shows as
	// cpu_us_per_op 0, which the output check rejects.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{cpu: tv(ru.Utime) + tv(ru.Stime), alloc: ms.TotalAlloc, gcs: ms.NumGC}
}

func (u usage) sub(prev usage) usage {
	return usage{cpu: u.cpu - prev.cpu, alloc: u.alloc - prev.alloc, gcs: u.gcs - prev.gcs}
}

func (u *usage) add(o usage) {
	u.cpu += o.cpu
	u.alloc += o.alloc
	u.gcs += o.gcs
}

// pass is what one measured pass over a workload yields.
type pass struct {
	ops   int64         // tests executed or queries answered
	wall  time.Duration // sum of the timed regions
	rates []float64     // ops/s of each round (campaigns) or window (serve)
	used  usage         // over the timed regions
	// attempted counts tests and queries; failed counts serving failures,
	// admission refusals, shed or invalid predictions.
	attempted, failed int64
	// problems are breaches of the correctness gate.
	problems []string

	// Campaign workloads: the first round, one campaign per campaign seed.
	// Every later round reproduces it, so its counts are the reported ones.
	first []campaignRep
	// Inference workloads: serving counters summed over the pass's servers,
	// and the tensor-pool traffic they caused.
	serve serve.Stats
	pool  nn.PoolStats
	// Serve workloads: submit-to-reply time of every query, ascending.
	latenciesMs []float64
	// entries is the final corpus of the first campaign: what the loop
	// probes run over, so that they see tests of the loop's own size.
	entries []*corpus.Entry
	// barrierWaitNs sums the wall time VMs spent blocked at barriers.
	barrierWaitNs int64
	// refWall is the wall of cluster_snow's single-host reference round.
	refWall time.Duration
}

// campaignRep is one fixed-budget campaign.
type campaignRep struct {
	wall         time.Duration
	used         usage
	stats        *fuzzer.Stats
	serve        serve.Stats // of the campaign's server, zero on fuzz_syz
	corpusDigest string
	coverDigest  string
	wire         cluster.WireStats
	checkpoints  int
	checkpoint   []byte // the last one captured
	// entries is the final corpus, which the single-host engine exposes.
	entries []*corpus.Entry
}

func (p *pass) fail(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

func isCampaign(workload string) bool {
	return workload == "fuzz_syz" || workload == "fuzz_snow" || workload == "cluster_snow"
}

// runPass measures one workload for about dur. reg is non-nil in the traced
// pass only, where it switches on the program's own metrics hooks.
func (e *env) runPass(workload string, dur time.Duration, rec *recorder, reg *obs.Registry) (*pass, error) {
	root := rec.begin("pass:"+workload, -1, 0)
	defer rec.end(root)
	poolBefore := e.model.PoolStats()
	var p *pass
	var err error
	switch {
	case isCampaign(workload):
		p, err = e.campaignPass(workload, dur, rec, root, reg)
	case workload == "serve_cold" || workload == "serve_hot":
		p, err = e.servePass(workload == "serve_hot", dur, rec, root, reg)
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	// Kernel timing is process-wide and a server with metrics turns it on;
	// the next untraced pass and the probes must run without it.
	nn.SetKernelProfiling(false)
	p.pool = e.model.PoolStats()
	p.pool.Borrows -= poolBefore.Borrows
	p.pool.Reuses -= poolBefore.Reuses
	if p.failed > 0 {
		p.fail("%d of %d operations failed", p.failed, p.attempted)
	}
	return p, nil
}

// addServe sums the counters of one server into the pass.
func (p *pass) addServe(s serve.Stats) {
	t := &p.serve
	t.MeanLatency = time.Duration(ratio(
		float64(t.MeanLatency)*float64(t.Succeeded)+float64(s.MeanLatency)*float64(s.Succeeded),
		float64(t.Succeeded+s.Succeeded)))
	t.Served += s.Served
	t.Queries += s.Queries
	t.Succeeded += s.Succeeded
	t.Failed += s.Failed
	t.Rejected += s.Rejected
	t.QuotaRejected += s.QuotaRejected
	t.Shed += s.Shed
	t.Retries += s.Retries
	t.Batches += s.Batches
	t.CacheHits += s.CacheHits
	t.CacheMisses += s.CacheMisses
	p.failed += s.Failed + s.Rejected + s.QuotaRejected + s.Shed
}

// campaignPass repeats rounds until dur has passed. A round is one
// fixed-budget campaign on each campaign seed, back to back, so every round
// does the same work and its rate averages over the seeds. Every round must
// reproduce the first.
func (e *env) campaignPass(workload string, dur time.Duration, rec *recorder, parent int, reg *obs.Registry) (*pass, error) {
	p := &pass{}
	var ref []campaignRep
	if workload == "cluster_snow" {
		// The same specs on the single-host engine: cluster_snow's results
		// must equal them, and their wall prices the cluster.
		var err error
		if ref, err = e.round("fuzz_snow", rec, parent, nil); err != nil {
			return nil, fmt.Errorf("single-host reference: %w", err)
		}
		for _, rep := range ref {
			p.refWall += rep.wall
		}
	}
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < dur; i++ {
		runtime.GC()
		round, err := e.round(workload, rec, parent, reg)
		if err != nil {
			return nil, err
		}
		var execs int64
		var wall time.Duration
		for i, rep := range round {
			st := rep.stats
			execs += st.Executions
			wall += rep.wall
			p.used.add(rep.used)
			p.attempted += st.Executions + st.PMMQueries
			p.failed += st.PMMFailed + st.PMMShed + st.PMMInvalidSlots
			p.addServe(rep.serve)
			for _, vm := range st.VMs {
				p.barrierWaitNs += vm.QueueWaitNs
			}
			if st.Executions == 0 || st.FinalEdges == 0 {
				p.fail("campaign %d executed %d tests and covered %d edges", i, st.Executions, st.FinalEdges)
			}
			if workload != "fuzz_syz" && st.PMMQueries == 0 {
				p.fail("campaign %d sent no queries", i)
			}
			if ref != nil {
				if diff := rep.differs(ref[i]); diff != "" {
					p.fail("cluster campaign %d differs from the single-host one: %s", i, diff)
				}
			}
			if p.first != nil {
				if diff := rep.differs(p.first[i]); diff != "" {
					p.fail("campaign %d did not reproduce: %s", i, diff)
				}
			}
		}
		if p.first == nil {
			p.first = round
			if p.entries = round[0].entries; ref != nil {
				p.entries = ref[0].entries // the same corpus, by the check above
			}
		}
		p.ops += execs
		p.wall += wall
		p.rates = append(p.rates, float64(execs)/wall.Seconds())
	}
	return p, nil
}

// round runs one campaign on each campaign seed.
func (e *env) round(workload string, rec *recorder, parent int, reg *obs.Registry) ([]campaignRep, error) {
	round := make([]campaignRep, len(e.campaignSeeds))
	for i := range round {
		var err error
		if round[i], err = e.campaign(workload, i, rec, parent, reg); err != nil {
			return nil, err
		}
	}
	return round, nil
}

// differs names the first determinism-guaranteed result on which two
// campaigns on one seed disagree, or returns "".
func (a campaignRep) differs(b campaignRep) string {
	switch {
	case a.corpusDigest != b.corpusDigest:
		return fmt.Sprintf("corpus digest %.12s, was %.12s", a.corpusDigest, b.corpusDigest)
	case a.coverDigest != b.coverDigest:
		return fmt.Sprintf("cover digest %.12s, was %.12s", a.coverDigest, b.coverDigest)
	case a.stats.Executions != b.stats.Executions:
		return fmt.Sprintf("%d executions, were %d", a.stats.Executions, b.stats.Executions)
	case a.stats.PMMQueries != b.stats.PMMQueries:
		return fmt.Sprintf("%d queries, were %d", a.stats.PMMQueries, b.stats.PMMQueries)
	case a.stats.FinalEdges != b.stats.FinalEdges:
		return fmt.Sprintf("%d edges, were %d", a.stats.FinalEdges, b.stats.FinalEdges)
	}
	return ""
}

// campaign runs one campaign of the workload's kind on campaign seed idx.
// Only Fuzzer.Run / RunLocalOpts is timed: servers are built and closed,
// and digests computed, outside the timed region.
func (e *env) campaign(workload string, idx int, rec *recorder, parent int, reg *obs.Registry) (campaignRep, error) {
	var rep campaignRep
	cfg := fuzzer.Config{
		Kernel: e.k, An: e.an, Seed: e.campaignSeeds[idx], SeedCorpus: e.seedProgs[idx], Metrics: reg,
		Mode: fuzzer.ModeSyzkaller, Budget: e.sz.SyzBudget,
	}
	var srv *serve.Server
	if workload != "fuzz_syz" {
		opts := e.serveOptions()
		if reg != nil {
			opts.Metrics, opts.KernelProfile = reg, true
		}
		srv = serve.NewServerOpts(e.model, e.builder(), opts)
		defer srv.Close()
		cfg.Mode, cfg.Budget = fuzzer.ModeSnowplow, e.sz.SnowBudget
		// Two VMs, because the barrier engine harvests predictions at
		// barriers and is a pure function of the seed; the sequential
		// Snowplow engine harvests by wall-clock arrival and is not.
		cfg.VMs, cfg.SyncEvery, cfg.Server = 2, e.sz.SyncEvery, srv
	}
	// timed runs the campaign proper under a span, the clock and the
	// resource meter.
	timed := func(name string, run func() error) error {
		span := rec.begin(name, parent, 0)
		before, t0 := readUsage(), time.Now()
		err := run()
		rep.wall = time.Since(t0)
		rep.used = readUsage().sub(before)
		rec.end(span)
		return err
	}
	if workload != "cluster_snow" {
		f := fuzzer.New(cfg)
		err := timed("fuzzer.Run", func() (err error) {
			rep.stats, err = f.Run()
			return err
		})
		if err != nil {
			return rep, err
		}
		rep.corpusDigest, rep.coverDigest = cluster.CorpusDigest(f.Corpus()), cluster.CoverDigest(f.Corpus())
		rep.entries = f.Corpus().Entries()
	} else {
		// Each worker gets a tenant of one server of the common shape; the
		// cluster's own shared server neither batches nor caches graphs, and
		// would compare two serving configurations instead of two engines.
		wopts := make([]cluster.WorkerOptions, cfg.VMs)
		for i := range wopts {
			t, err := srv.Tenant(serve.TenantConfig{Name: fmt.Sprintf("worker%d", i)})
			if err != nil {
				return rep, err
			}
			wopts[i] = cluster.WorkerOptions{Inference: t, Fused: true}
		}
		cfg.Server = nil
		ccfg := cluster.Config{
			Spec: cluster.SpecFromConfig(cfg, e.modelBytes), Compress: 6, CheckpointEvery: 8, Metrics: reg,
			OnCheckpoint: func(_ int64, data []byte) {
				rep.checkpoints++
				rep.checkpoint = append(rep.checkpoint[:0], data...)
			},
		}
		var res *cluster.Result
		err := timed("cluster.RunLocalOpts", func() (err error) {
			res, err = cluster.RunLocalOpts(ccfg, wopts)
			return err
		})
		if err != nil {
			return rep, err
		}
		rep.stats, rep.wire = res.Stats, res.Wire
		rep.corpusDigest, rep.coverDigest = res.CorpusDigest, res.CoverDigest
	}
	if srv != nil {
		rep.serve = srv.Stats()
	}
	return rep, nil
}

// checkSet is how many pool entries have their replies compared with a
// reference forward.
const checkSet = 64

type reply struct {
	idx   int
	slots []prog.GlobalSlot
}

// servePass drives the closed loop: Clients goroutines, each keeping Window
// queries in flight through InferAsync, as the fuzzer does. Cold cycles the
// whole pool in order, so a cache a quarter its size never hits; hot draws
// uniformly from the first HotSet entries after an untimed warm pass.
func (e *env) servePass(hot bool, dur time.Duration, rec *recorder, parent int, reg *obs.Registry) (*pass, error) {
	p := &pass{}
	opts := e.serveOptions()
	if reg != nil {
		opts.Metrics, opts.KernelProfile = reg, true
	}
	srv := serve.NewServerOpts(e.model, e.builder(), opts)
	defer srv.Close()
	if hot {
		warm := rec.begin("warm", parent, 0)
		for _, q := range e.pool[:e.sz.HotSet] {
			if _, err := srv.Infer(q); err != nil {
				return nil, fmt.Errorf("warm pass: %w", err)
			}
		}
		rec.end(warm)
	}
	warmStats := srv.Stats()

	type clientResult struct {
		attempted, failed int64
		latencies         []float64
		done              []time.Duration // completion offsets from start
		checks            []reply
	}
	results := make([]clientResult, e.sz.Clients)
	var next atomic.Int64 // cold: the pool position shared by the clients
	runtime.GC()
	before, start := readUsage(), time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := range results {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			r := rng.New(e.seed + uint64(c)*0x9e3779b97f4a7c15)
			type inflight struct {
				ch    <-chan serve.Prediction
				start time.Time
				idx   int
				span  int
			}
			ring := make([]inflight, e.sz.Window)
			head, n := 0, 0
			for {
				for n < len(ring) && time.Now().Before(deadline) {
					idx := r.Intn(e.sz.HotSet)
					if !hot {
						idx = int(next.Add(1)-1) % len(e.pool)
					}
					slot := (head + n) % len(ring)
					span := rec.begin("serve.InferAsync", parent, 1+c*len(ring)+slot)
					t0 := time.Now()
					ch, err := srv.InferAsync(e.pool[idx])
					res.attempted++
					if err != nil {
						// An admission refusal; none is expected, and a loop
						// of them must not spin.
						rec.end(span)
						res.failed++
						if res.failed > 100 {
							return
						}
						continue
					}
					ring[slot] = inflight{ch: ch, start: t0, idx: idx, span: span}
					n++
				}
				if n == 0 {
					return
				}
				f := ring[head]
				head, n = (head+1)%len(ring), n-1
				pred := <-f.ch
				end := time.Now()
				rec.end(f.span)
				if pred.Err != nil {
					res.failed++
					continue
				}
				res.latencies = append(res.latencies, float64(end.Sub(f.start))/1e6)
				res.done = append(res.done, end.Sub(start))
				if f.idx < checkSet && len(res.checks) < 4*checkSet {
					res.checks = append(res.checks, reply{f.idx, pred.Slots})
				}
			}
		}(c)
	}
	wg.Wait()
	p.used = readUsage().sub(before)
	stats := srv.Stats()

	var done []time.Duration
	var checks []reply
	for _, res := range results {
		p.attempted += res.attempted
		p.failed += res.failed
		p.latenciesMs = append(p.latenciesMs, res.latencies...)
		done = append(done, res.done...)
		checks = append(checks, res.checks...)
	}
	sort.Float64s(p.latenciesMs)
	p.ops = int64(len(done))
	if p.ops == 0 {
		return nil, fmt.Errorf("no query was answered in %v", dur)
	}
	for _, d := range done {
		if d > p.wall {
			p.wall = d
		}
	}
	// Throughput is the median over windows, so one stall moves one window.
	window := time.Second
	if dur < 4*window {
		window = dur / 4
	}
	counts := make([]int, int(dur/window))
	for _, d := range done {
		if i := int(d / window); i < len(counts) {
			counts[i]++
		}
	}
	for _, n := range counts {
		p.rates = append(p.rates, float64(n)/window.Seconds())
	}

	p.addServe(stats)
	hits, misses := stats.CacheHits-warmStats.CacheHits, stats.CacheMisses-warmStats.CacheMisses
	p.serve.CacheHits, p.serve.CacheMisses = hits, misses
	if hot {
		if warmStats.CacheMisses != int64(e.sz.HotSet) || misses != 0 {
			p.fail("serve_hot missed the graph cache %d times warming and %d times after, want %d and 0", warmStats.CacheMisses, misses, e.sz.HotSet)
		}
	} else if float64(hits) >= 0.01*float64(hits+misses) {
		p.fail("serve_cold hit the graph cache %d times in %d, want under 1%%", hits, hits+misses)
	}
	return p, e.checkReplies(p, checks)
}

// checkReplies compares served predictions with a forward of the saved
// model, loaded afresh and run unfused, unbatched and uncached.
func (e *env) checkReplies(p *pass, checks []reply) error {
	if len(checks) == 0 {
		p.fail("no reply to compare with the reference")
		return nil
	}
	ref, err := pmm.Load(bytes.NewReader(e.modelBytes))
	if err != nil {
		return fmt.Errorf("loading reference model: %w", err)
	}
	ref.Freeze()
	b := qgraph.NewBuilder(e.k, e.an)
	want := map[int][]prog.GlobalSlot{}
	for _, c := range checks {
		w, ok := want[c.idx]
		if !ok {
			q := e.pool[c.idx]
			w, _ = ref.Predict(b.Build(q.Prog, q.Traces, q.Targets))
			want[c.idx] = w
		}
		if !slices.Equal(c.slots, w) {
			p.fail("query %d: served slots %v differ from the reference %v", c.idx, c.slots, w)
			return nil
		}
	}
	return nil
}

// heapPeak samples live heap bytes until stop is closed and returns the
// highest reading.
func heapPeak(stop <-chan struct{}) uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peak uint64
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > peak {
			peak = v
		}
		select {
		case <-stop:
			return peak
		case <-tick.C:
		}
	}
}
