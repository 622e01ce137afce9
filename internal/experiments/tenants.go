// The multi-tenant serving benchmark: how much does consolidating N
// concurrent campaigns onto one shared, round-robin model server cost
// against giving every campaign its own dedicated server?
//
// For each fleet size the dedicated baseline runs N single-worker servers
// (one per campaign) and the shared side runs one multi-tenant server with
// cross-tenant micro-batching on a fixed pool of min(N, 4) workers. Each
// campaign drives its side the way campaigns do, with tenantInFlight async
// queries outstanding, for the same wall-clock window on both sides — so the
// shared queue stays backlogged, which is the regime round-robin's
// equal-share guarantee speaks to. Reported per scenario: aggregate
// throughput of both sides, their ratio (the consolidation efficiency), and
// the fairness ratio — the max/min per-tenant served count, 1.0 being
// perfectly equal service. The single-campaign
// scenario doubles as the regression guard for the pre-tenancy serving
// path, measured in interleaved rounds so host-load noise hits both sides
// alike.

package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"github.com/repro/snowplow/internal/exec"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/serve"
	"github.com/repro/snowplow/internal/trace"
)

// TenantScenario is one fleet-size row of the multi-tenant benchmark.
type TenantScenario struct {
	// Tenants is the number of concurrent campaigns.
	Tenants int
	// SharedQPS and DedicatedQPS are aggregate succeeded queries/second on
	// the one-shared-server and N-dedicated-servers platforms.
	SharedQPS    float64
	DedicatedQPS float64
	// QPSRatio is SharedQPS/DedicatedQPS — the consolidation efficiency.
	QPSRatio float64
	// FairnessRatio is max/min per-tenant served count on the shared server
	// (1.0 = perfectly equal service).
	FairnessRatio float64
	// MaxMeanQueueWait is the worst tenant's mean scheduler-queue wait.
	MaxMeanQueueWait time.Duration
	// BatchFill is the shared server's batch occupancy (AvgBatchSize /
	// BatchSize).
	BatchFill float64
	// Refused counts submissions either side refused at admission.
	Refused int64
}

// TenantsResult is the multi-tenant serving benchmark artifact
// (BENCH_tenants.json). The 1-tenant row's QPSRatio is the lone-campaign
// cost of the shared platform.
type TenantsResult struct {
	Scenarios []TenantScenario
}

// tenantBenchWindow is the per-measurement wall-clock window.
const tenantBenchWindow = 250 * time.Millisecond

// tenantInFlight is how many async queries each tenant keeps outstanding:
// the default queue's depth per serving worker.
const tenantInFlight = 8

// driveTenants keeps tenantInFlight queries outstanding on each Inferrer
// for the window. It returns per-tenant counts of replies that succeeded
// within the window, their aggregate rate, and how many submissions were
// refused at admission. A refused submission is counted, not retried: the
// tenant waits on its oldest outstanding reply instead.
func driveTenants(infs []serve.Inferrer, q serve.Query, window time.Duration) (counts []int64, qps float64, refused int64) {
	counts = make([]int64, len(infs))
	refusals := make([]int64, len(infs))
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for i, inf := range infs {
		wg.Add(1)
		go func(i int, inf serve.Inferrer) {
			defer wg.Done()
			var pending []<-chan serve.Prediction
			for time.Now().Before(deadline) {
				for len(pending) < tenantInFlight {
					ch, err := inf.InferAsync(q)
					if err != nil {
						refusals[i]++
						break
					}
					pending = append(pending, ch)
				}
				if len(pending) == 0 {
					runtime.Gosched()
					continue
				}
				p := <-pending[0]
				pending = pending[1:]
				if p.Err == nil && time.Now().Before(deadline) {
					counts[i]++
				}
			}
			for _, ch := range pending {
				<-ch
			}
		}(i, inf)
	}
	wg.Wait()
	var total int64
	for i, c := range counts {
		total += c
		refused += refusals[i]
	}
	return counts, float64(total) / window.Seconds(), refused
}

// sharedPlatform builds the consolidated server for n campaigns and returns
// its tenant handles.
func sharedPlatform(h *Harness, n int) (*serve.Server, []serve.Inferrer) {
	srv := h.ServerOpts("6.8", serve.Options{
		Workers:   min(n, 4),
		BatchSize: 8,
		QueueSize: 256,
	})
	infs := make([]serve.Inferrer, n)
	for i := range infs {
		t, err := srv.Tenant(serve.TenantConfig{Name: fmt.Sprintf("t%d", i)})
		if err != nil {
			panic(err)
		}
		infs[i] = t
	}
	return srv, infs
}

// dedicatedPlatform builds n single-worker servers, one per campaign.
func dedicatedPlatform(h *Harness, n int) ([]*serve.Server, []serve.Inferrer) {
	srvs := make([]*serve.Server, n)
	infs := make([]serve.Inferrer, n)
	for i := range srvs {
		srvs[i] = h.ServerOpts("6.8", serve.Options{Workers: 1})
		infs[i] = srvs[i]
	}
	return srvs, infs
}

func fairnessRatio(counts []int64) float64 {
	lo, hi := counts[0], counts[0]
	for _, c := range counts[1:] {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if lo <= 0 {
		return 0
	}
	return float64(hi) / float64(lo)
}

// Tenants runs the multi-tenant serving benchmark over 1, 4 and 16
// concurrent campaigns.
func Tenants(h *Harness) TenantsResult {
	k := h.Kernel("6.8")
	q := sampleQuery(h, k)
	var res TenantsResult

	// Warm the model cache before timing anything.
	h.Model()

	for _, n := range []int{1, 4, 16} {
		h.logf("tenants: %d concurrent campaigns...\n", n)
		var sc TenantScenario
		sc.Tenants = n
		// Interleave dedicated and shared rounds so wall-clock noise from a
		// busy host degrades both sides alike.
		const rounds = 3
		var sharedCounts []int64
		for r := 0; r < rounds; r++ {
			srvs, dinfs := dedicatedPlatform(h, n)
			_, dqps, drefused := driveTenants(dinfs, q, tenantBenchWindow)
			for _, s := range srvs {
				s.Close()
			}
			sc.DedicatedQPS += dqps
			sc.Refused += drefused

			shared, sinfs := sharedPlatform(h, n)
			counts, sqps, srefused := driveTenants(sinfs, q, tenantBenchWindow)
			sc.SharedQPS += sqps
			sc.Refused += srefused
			if sharedCounts == nil {
				sharedCounts = counts
			} else {
				for i, c := range counts {
					sharedCounts[i] += c
				}
			}
			sc.BatchFill += shared.Stats().BatchFill / rounds
			for _, ts := range shared.TenantStats() {
				if ts.MeanQueueWait > sc.MaxMeanQueueWait {
					sc.MaxMeanQueueWait = ts.MeanQueueWait
				}
			}
			shared.Close()
		}
		sc.SharedQPS /= rounds
		sc.DedicatedQPS /= rounds
		if sc.DedicatedQPS > 0 {
			sc.QPSRatio = sc.SharedQPS / sc.DedicatedQPS
		}
		sc.FairnessRatio = fairnessRatio(sharedCounts)
		res.Scenarios = append(res.Scenarios, sc)
	}
	return res
}

// Render prints the benchmark table.
func (r TenantsResult) Render(w io.Writer) {
	fmt.Fprintf(w, "== Multi-tenant serving (1/4/16 concurrent campaigns) ==\n")
	fmt.Fprintf(w, "%-8s %12s %12s %8s %9s %10s %7s %7s\n",
		"tenants", "shared q/s", "dedic. q/s", "ratio", "fairness", "max wait", "fill", "refused")
	for _, sc := range r.Scenarios {
		fmt.Fprintf(w, "%-8d %12.0f %12.0f %8.2f %9.2f %10v %7.2f %7d\n",
			sc.Tenants, sc.SharedQPS, sc.DedicatedQPS, sc.QPSRatio, sc.FairnessRatio,
			sc.MaxMeanQueueWait.Round(time.Microsecond), sc.BatchFill, sc.Refused)
	}
}

// sampleQuery builds one realistic query on kernel 6.8: a generated
// program, its execution traces and up to eight frontier targets.
func sampleQuery(h *Harness, k *kernel.Kernel) serve.Query {
	g := prog.NewGenerator(k.Target)
	p := g.Generate(rng.New(h.Opts.Seed+0x9e7f), 4)
	res, err := exec.New(k).Run(p)
	if err != nil {
		panic(err)
	}
	covered := trace.NewBlockSet(trace.BlocksOf(res))
	alts := h.Analysis("6.8").Frontier(covered)
	var targets []kernel.BlockID
	for i, alt := range alts {
		if i >= 8 {
			break
		}
		targets = append(targets, alt.Entry)
	}
	return serve.Query{Prog: p, Traces: res.CallTraces, Targets: targets}
}
