package serve

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
)

// schedFixture builds a scheduler with registered tenants and no server
// behind it, for white-box service-order tests.
func schedFixture(t *testing.T, cfgs ...TenantConfig) (*sched, []*tenant) {
	t.Helper()
	sc := newSched()
	tenants := make([]*tenant, len(cfgs))
	for i, cfg := range cfgs {
		cfg = cfg.withDefaults(Options{QueueSize: 1024})
		tn, err := sc.register(cfg, nil)
		if err != nil {
			t.Fatalf("register %q: %v", cfg.Name, err)
		}
		tenants[i] = tn
	}
	return sc, tenants
}

func enqueueN(t *testing.T, sc *sched, tn *tenant, prio Priority, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := sc.enqueue(&attempt{t: tn, prio: prio}); err != nil {
			t.Fatalf("enqueue: %v", err)
		}
	}
}

// countByTenant tallies a popped batch.
func countByTenant(batch []*attempt) map[*tenant]int {
	out := map[*tenant]int{}
	for _, at := range batch {
		out[at.t]++
	}
	return out
}

func TestDRRSharesFollowWeights(t *testing.T) {
	sc, tn := schedFixture(t,
		TenantConfig{Name: "heavy", Weight: 3},
		TenantConfig{Name: "light", Weight: 1},
	)
	// Both saturated: interleaved arrival order must not matter.
	for i := 0; i < 24; i++ {
		enqueueN(t, sc, tn[1], PriorityBackground, 1)
		enqueueN(t, sc, tn[0], PriorityBackground, 1)
	}
	batch := sc.popMore(nil, 16)
	if len(batch) != 16 {
		t.Fatalf("popped %d, want 16", len(batch))
	}
	got := countByTenant(batch)
	if got[tn[0]] != 12 || got[tn[1]] != 4 {
		t.Fatalf("service split heavy=%d light=%d, want 12/3 split 12/4", got[tn[0]], got[tn[1]])
	}
}

func TestDRRDeficitPersistsAcrossFills(t *testing.T) {
	sc, tn := schedFixture(t,
		TenantConfig{Name: "a", Weight: 4},
		TenantConfig{Name: "b", Weight: 4},
	)
	enqueueN(t, sc, tn[0], PriorityBackground, 8)
	enqueueN(t, sc, tn[1], PriorityBackground, 8)
	// Room 2 interrupts tenant a's turn mid-deficit; the next fill must
	// resume a's turn without re-crediting, so over the first 8 pops the
	// 4/4 quantum alternation holds exactly.
	var order []*tenant
	for i := 0; i < 4; i++ {
		for _, at := range sc.popMore(nil, 2) {
			order = append(order, at.t)
		}
	}
	for i, tnGot := range order {
		want := tn[0]
		if i >= 4 {
			want = tn[1]
		}
		if tnGot != want {
			t.Fatalf("pop %d served %q, want %q", i, tnGot.cfg.Name, want.cfg.Name)
		}
	}
}

func TestDirectedBandDrainsFirst(t *testing.T) {
	sc, tn := schedFixture(t,
		TenantConfig{Name: "bg", Weight: 8},
		TenantConfig{Name: "dir", Weight: 1, Priority: PriorityDirected},
	)
	enqueueN(t, sc, tn[0], PriorityBackground, 8)
	enqueueN(t, sc, tn[1], PriorityDirected, 3)
	batch := sc.popMore(nil, 6)
	for i := 0; i < 3; i++ {
		if batch[i].t != tn[1] {
			t.Fatalf("pop %d from %q, want directed tenant first", i, batch[i].t.cfg.Name)
		}
	}
	for i := 3; i < 6; i++ {
		if batch[i].t != tn[0] {
			t.Fatalf("pop %d from %q, want background after directed drained", i, batch[i].t.cfg.Name)
		}
	}
}

func TestQueryPriorityTagRaisesBand(t *testing.T) {
	sc, tn := schedFixture(t, TenantConfig{Name: "bg"})
	enqueueN(t, sc, tn[0], PriorityBackground, 2)
	enqueueN(t, sc, tn[0], PriorityDirected, 1)
	batch := sc.popMore(nil, 3)
	if batch[0].prio != PriorityDirected {
		t.Fatalf("first pop priority %v, want directed ahead of earlier background", batch[0].prio)
	}
}

// TestTenantQueueBoundIsPerTenant fills one tenant's ring: a neighbor's
// full queue must not block this tenant. (A submitter facing its own full
// ring waits; TestWaitingEnqueueTakesFreedSlot pins that.)
func TestTenantQueueBoundIsPerTenant(t *testing.T) {
	sc, tn := schedFixture(t,
		TenantConfig{Name: "small", QueueSize: 2},
		TenantConfig{Name: "big", QueueSize: 8},
	)
	enqueueN(t, sc, tn[0], PriorityBackground, 2)
	enqueueN(t, sc, tn[1], PriorityBackground, 8)
	if d := sc.depth(); d != 10 {
		t.Fatalf("depth %d, want 10", d)
	}
}

// TestWaitingEnqueueTakesFreedSlot pins the wait for queue room: an enqueue
// onto a full ring blocks rather than failing, takes the slot the next pop
// frees, and a closed scheduler releases a waiter with ErrServerClosed.
func TestWaitingEnqueueTakesFreedSlot(t *testing.T) {
	sc, tn := schedFixture(t, TenantConfig{Name: "a", QueueSize: 2})
	enqueueN(t, sc, tn[0], PriorityBackground, 2)
	done := make(chan error, 1)
	go func() { done <- sc.enqueue(&attempt{t: tn[0], prio: PriorityBackground}) }()
	select {
	case err := <-done:
		t.Fatalf("enqueue onto a full ring returned %v instead of waiting", err)
	case <-time.After(20 * time.Millisecond):
	}
	if got := sc.popMore(nil, 1); len(got) != 1 {
		t.Fatalf("popped %d attempts", len(got))
	}
	if err := <-done; err != nil {
		t.Fatalf("waiting enqueue: %v", err)
	}
	if d := sc.depth(); d != 2 {
		t.Fatalf("depth %d after the waiter took the freed slot, want 2", d)
	}
	go func() { done <- sc.enqueue(&attempt{t: tn[0], prio: PriorityBackground}) }()
	time.Sleep(20 * time.Millisecond)
	sc.close()
	if err := <-done; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("waiter released by close: %v, want ErrServerClosed", err)
	}
}

func newTenantTestServer(t testing.TB, opts Options) *Server {
	t.Helper()
	m := pmm.NewModel(rng.New(1), pmm.DefaultConfig(), pmm.BuildVocab(testKernel))
	s := NewServerOpts(m, qgraph.NewBuilder(testKernel, testAn).WithCache(64), opts)
	t.Cleanup(s.Close)
	return s
}

func TestTenantRegistration(t *testing.T) {
	s := newTenantTestServer(t, Options{Workers: 1})
	if _, err := s.Tenant(TenantConfig{Name: "campaign1"}); err != nil {
		t.Fatalf("register: %v", err)
	}
	if _, err := s.Tenant(TenantConfig{Name: "campaign1"}); !errors.Is(err, ErrBadTenantConfig) {
		t.Fatalf("duplicate name: %v, want ErrBadTenantConfig", err)
	}
	if _, err := s.Tenant(TenantConfig{Name: "default"}); err == nil {
		t.Fatal("registering over the implicit default tenant must fail")
	}
	if _, err := s.Tenant(TenantConfig{Name: "bad name"}); !errors.Is(err, ErrBadTenantConfig) {
		t.Fatalf("invalid name: %v, want ErrBadTenantConfig", err)
	}
	if got := s.Stats().TenantCount; got != 2 {
		t.Fatalf("TenantCount = %d, want 2 (default + campaign1)", got)
	}
}

func TestTenantServingAndAttribution(t *testing.T) {
	s := newTenantTestServer(t, Options{Workers: 1})
	t1, err := s.Tenant(TenantConfig{Name: "one"})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := s.Tenant(TenantConfig{Name: "two"})
	if err != nil {
		t.Fatal(err)
	}
	q := testQuery(t)
	// one: miss then hit; two: hit. The shared cache's traffic must be
	// attributed to the querying tenant.
	for i, h := range []*Tenant{t1, t1, t2} {
		if _, err := h.Infer(q); err != nil {
			t.Fatalf("infer %d: %v", i, err)
		}
	}
	st1, st2 := t1.TenantStats(), t2.TenantStats()
	if st1.Queries != 2 || st1.Succeeded != 2 || st2.Queries != 1 || st2.Succeeded != 1 {
		t.Fatalf("per-tenant counters: one=%+v two=%+v", st1, st2)
	}
	if st1.CacheMisses != 1 || st1.CacheHits != 1 {
		t.Fatalf("tenant one cache hits/misses = %d/%d, want 1/1", st1.CacheHits, st1.CacheMisses)
	}
	if st2.CacheMisses != 0 || st2.CacheHits != 1 {
		t.Fatalf("tenant two cache hits/misses = %d/%d, want 1/0", st2.CacheHits, st2.CacheMisses)
	}
	// The Inferrer Stats view reports the tenant's attributed slice.
	if got := t2.Stats().CacheHits; got != 1 {
		t.Fatalf("tenant two Stats().CacheHits = %d, want 1", got)
	}
	// Default tenant untouched.
	if def := s.DefaultTenant().TenantStats(); def.Queries != 0 {
		t.Fatalf("default tenant saw %d queries, want 0", def.Queries)
	}
	all := s.TenantStats()
	if len(all) != 3 || all[0].Name != "default" || all[1].Name != "one" || all[2].Name != "two" {
		t.Fatalf("TenantStats order: %+v", all)
	}
}

func TestWeightedTenantsShareSaturatedServer(t *testing.T) {
	// End-to-end fairness: two tenants flood a one-worker server; served
	// counts must track weights within a loose tolerance (scheduling is
	// deterministic, but arrival interleaving is not).
	s := newTenantTestServer(t, Options{Workers: 1, BatchSize: 4, QueueSize: 64})
	heavy, err := s.Tenant(TenantConfig{Name: "heavy", Weight: 3})
	if err != nil {
		t.Fatal(err)
	}
	light, err := s.Tenant(TenantConfig{Name: "light", Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := testQuery(t)
	const perTenant = 48
	replies := make([]<-chan Prediction, 0, 2*perTenant)
	for i := 0; i < perTenant; i++ {
		for _, h := range []*Tenant{heavy, light} {
			r, err := h.InferAsync(q)
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			replies = append(replies, r)
		}
	}
	for _, r := range replies {
		if p := <-r; p.Err != nil {
			t.Fatalf("prediction: %v", p.Err)
		}
	}
	hs, ls := heavy.TenantStats(), light.TenantStats()
	if hs.Succeeded != perTenant || ls.Succeeded != perTenant {
		t.Fatalf("succeeded heavy=%d light=%d, want %d each", hs.Succeeded, ls.Succeeded, perTenant)
	}
	if hs.Batches == 0 || ls.Batches == 0 {
		t.Fatalf("batch attribution missing: heavy=%d light=%d", hs.Batches, ls.Batches)
	}
}

func TestParseTenants(t *testing.T) {
	tenants, err := ParseTenants(4, "3,1")
	if err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 4 {
		t.Fatalf("tenants: %+v", tenants)
	}
	wantW := []int{3, 1, 1, 1} // short list repeats its last value
	for i, tc := range tenants {
		if tc.Name != fmt.Sprintf("t%d", i) || tc.Weight != wantW[i] {
			t.Fatalf("tenant %d: %+v, want weight %d", i, tc, wantW[i])
		}
	}
	if _, err := ParseTenants(0, ""); err == nil {
		t.Fatal("zero tenants must fail")
	}
	if _, err := ParseTenants(2, "1,x"); !errors.Is(err, ErrBadTenantConfig) {
		t.Fatalf("bad weight: %v, want ErrBadTenantConfig", err)
	}
	if _, err := ParseTenants(2, "2,-1"); !errors.Is(err, ErrBadTenantConfig) {
		t.Fatalf("negative weight: %v, want ErrBadTenantConfig", err)
	}
}
