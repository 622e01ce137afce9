package fuzzer

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"testing"

	"github.com/repro/snowplow/internal/corpus"
	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/serve"
)

// snowplowCampaignOn runs one synchronous-inference campaign against a
// server built with the given options, optionally as a registered tenant of
// that server rather than through its default tenant.
func snowplowCampaignOn(t *testing.T, seed uint64, opts serve.Options, asTenant bool) *Stats {
	t.Helper()
	stats, _ := snowplowCampaignCorpus(t, seed, opts, asTenant)
	return stats
}

// snowplowCampaignCorpus is snowplowCampaignOn that also hands back the
// final corpus, for tests that pin its digests.
func snowplowCampaignCorpus(t *testing.T, seed uint64, opts serve.Options, asTenant bool) (*Stats, *corpus.Corpus) {
	t.Helper()
	m := pmm.NewModel(rng.New(77), pmm.DefaultConfig(), pmm.BuildVocab(testKernel))
	srv := serve.NewServerOpts(m, qgraph.NewBuilder(testKernel, testAn).WithCache(256), opts)
	defer srv.Close()
	var inf serve.Inferrer = srv
	if asTenant {
		h, err := srv.Tenant(serve.TenantConfig{Name: "campaign"})
		if err != nil {
			t.Fatal(err)
		}
		inf = h
	}
	cfg := baselineConfig(seed, 200_000)
	cfg.Mode = ModeSnowplow
	cfg.Server = inf
	cfg.SyncInference = true
	f := New(cfg)
	stats, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	return zeroQueueWait(stats), f.Corpus()
}

// corpusCoverDigests hashes the corpus in publish order (entry text plus
// per-call traces) and its sorted edge cover: byte for byte what
// cluster.CorpusDigest and cluster.CoverDigest hash, which this package
// cannot import (cluster imports fuzzer).
func corpusCoverDigests(c *corpus.Corpus) (corp, cover string) {
	var buf [8]byte
	h := sha256.New()
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, e := range c.Entries() {
		u(uint64(len(e.Text)))
		h.Write([]byte(e.Text))
		for _, tr := range e.Traces {
			for _, b := range tr {
				u(uint64(b))
			}
			u(^uint64(0))
		}
	}
	corp = hex.EncodeToString(h.Sum(nil))
	h = sha256.New()
	for _, e := range c.TotalCover().Edges() {
		u(uint64(e))
	}
	return corp, hex.EncodeToString(h.Sum(nil))
}

// TestCampaignBitIdenticalAcrossServingPlatform is the multi-tenancy
// backward-compat contract: the same campaign produces byte-for-byte
// identical stats whether it runs through a dedicated server's default
// tenant (the pre-tenancy path), as a registered tenant of a shared
// server, or on a wider worker pool — with the fused kernels on or off.
// Tenancy and pool size change who is served when, never what is
// predicted.
func TestCampaignBitIdenticalAcrossServingPlatform(t *testing.T) {
	const seed = 57
	base := snowplowCampaignOn(t, seed, serve.Options{Workers: 1}, false)
	if base.FinalEdges == 0 || base.PMMQueries == 0 {
		t.Fatal("baseline campaign did no PMM-guided work")
	}
	variants := []struct {
		name     string
		opts     serve.Options
		asTenant bool
	}{
		{"registered-tenant", serve.Options{Workers: 1}, true},
		{"fused", serve.Options{Workers: 1, Fused: true}, false},
		{"fused-tenant-batched", serve.Options{Workers: 2, BatchSize: 4, Fused: true}, true},
		{"pool4", serve.Options{Workers: 4}, false},
		{"pool4-tenant", serve.Options{Workers: 4, Fused: true}, true},
	}
	for _, v := range variants {
		if got := snowplowCampaignOn(t, seed, v.opts, v.asTenant); !reflect.DeepEqual(got, base) {
			t.Errorf("%s: campaign diverged from the dedicated-server baseline:\nbase: edges=%d execs=%d queries=%d preds=%d cacheHits=%d\ngot:  edges=%d execs=%d queries=%d preds=%d cacheHits=%d",
				v.name,
				base.FinalEdges, base.Executions, base.PMMQueries, base.PMMPredictions, base.PMMCacheHits,
				got.FinalEdges, got.Executions, got.PMMQueries, got.PMMPredictions, got.PMMCacheHits)
		}
	}
}

// TestCampaignQuantReproducible pins the quantized path the same way:
// int8-quantized serving reproduces itself exactly across platform shapes
// (it legitimately differs from the float baseline — weights are rewritten
// dequantized — but must be deterministic and tenancy-invariant). The
// literal digests pin what a quantized campaign finds: they may move only
// with a change that is meant to change quantized replies.
func TestCampaignQuantReproducible(t *testing.T) {
	const (
		seed       = 58
		wantCorpus = "4ca7a0f22f83f965cb63365d6e726268e7ebf87ebf39545ea2434f63e4b8bbf9"
		wantCover  = "ec4093fec69a6e28685fdc17cca6e2cfb47ace04884f259f6bd9cd73a0e21641"
	)
	qbase, baseCorpus := snowplowCampaignCorpus(t, seed, serve.Options{Workers: 1, Quant: true}, false)
	if qbase.FinalEdges == 0 || qbase.PMMQueries == 0 {
		t.Fatal("quantized campaign did no PMM-guided work")
	}
	qTenant, tenantCorpus := snowplowCampaignCorpus(t, seed, serve.Options{Workers: 2, BatchSize: 4, Quant: true, Fused: true}, true)
	if !reflect.DeepEqual(qbase, qTenant) {
		t.Fatal("quantized campaign diverged between dedicated server and shared-server tenant")
	}
	for name, c := range map[string]*corpus.Corpus{"dedicated unfused": baseCorpus, "tenant fused": tenantCorpus} {
		if corp, cover := corpusCoverDigests(c); corp != wantCorpus || cover != wantCover {
			t.Errorf("%s: digests corpus=%s cover=%s, pinned corpus=%s cover=%s", name, corp, cover, wantCorpus, wantCover)
		}
	}
}
