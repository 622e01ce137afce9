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

// schedFixture builds a scheduler with registered tenants, each ring of
// capacity ring, and no server behind it, for white-box service-order tests.
func schedFixture(t *testing.T, ring int, cfgs ...TenantConfig) (*sched, []*tenant) {
	t.Helper()
	sc := newSched()
	tenants := make([]*tenant, len(cfgs))
	for i, cfg := range cfgs {
		tn, err := sc.register(cfg, nil, ring)
		if err != nil {
			t.Fatalf("register %q: %v", cfg.Name, err)
		}
		tenants[i] = tn
	}
	return sc, tenants
}

func enqueueN(t *testing.T, sc *sched, tn *tenant, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := sc.enqueue(&attempt{t: tn}); err != nil {
			t.Fatalf("enqueue: %v", err)
		}
	}
}

// TestRoundRobinOrderPinned pins the service order across fills of varying
// room, backlogs that drain and refill, and empty pops: one attempt per
// backlogged tenant per visit, the cursor carried from fill to fill. Each
// popMore's tenants are written out, ended by "|".
func TestRoundRobinOrderPinned(t *testing.T) {
	sc, tn := schedFixture(t, 16, TenantConfig{Name: "a"}, TenantConfig{Name: "b"}, TenantConfig{Name: "c"})
	add := func(i, n int) {
		for ; n > 0; n-- {
			if err := sc.enqueue(&attempt{t: tn[i]}); err != nil {
				t.Fatalf("enqueue: %v", err)
			}
		}
	}
	var order []byte
	pop := func(rooms ...int) {
		for _, room := range rooms {
			for _, at := range sc.popMore(nil, room) {
				order = append(order, at.t.cfg.Name...)
			}
			order = append(order, '|')
		}
	}
	add(0, 5)
	add(1, 2)
	add(2, 7)
	pop(1, 3, 2)
	add(1, 3)
	pop(8)
	add(0, 1)
	pop(8, 8)
	if got, want := string(order), "a|bca|bc|abcabcab|cacc||"; got != want {
		t.Fatalf("service order %q, want %q", got, want)
	}
}

// TestTenantQueueBoundIsPerTenant fills one tenant's ring: a neighbor's
// full queue must not block this tenant. (A submitter facing its own full
// ring waits; TestWaitingEnqueueTakesFreedSlot pins that.)
func TestTenantQueueBoundIsPerTenant(t *testing.T) {
	sc, tn := schedFixture(t, 2, TenantConfig{Name: "full"}, TenantConfig{Name: "other"})
	enqueueN(t, sc, tn[0], 2)
	enqueueN(t, sc, tn[1], 2)
	if d := sc.depth(); d != 4 {
		t.Fatalf("depth %d, want 4", d)
	}
}

// TestWaitingEnqueueTakesFreedSlot pins the wait for queue room: an enqueue
// onto a full ring blocks rather than failing, takes the slot the next pop
// frees, and a closed scheduler releases a waiter with ErrServerClosed.
func TestWaitingEnqueueTakesFreedSlot(t *testing.T) {
	sc, tn := schedFixture(t, 2, TenantConfig{Name: "a"})
	enqueueN(t, sc, tn[0], 2)
	done := make(chan error, 1)
	go func() { done <- sc.enqueue(&attempt{t: tn[0]}) }()
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
	go func() { done <- sc.enqueue(&attempt{t: tn[0]}) }()
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

// TestTenantsShareSaturatedServer floods a one-worker batching server from
// two tenants: every query succeeds and both tenants are credited batches.
func TestTenantsShareSaturatedServer(t *testing.T) {
	s := newTenantTestServer(t, Options{Workers: 1, BatchSize: 4, QueueSize: 64})
	a, err := s.Tenant(TenantConfig{Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Tenant(TenantConfig{Name: "b"})
	if err != nil {
		t.Fatal(err)
	}
	q := testQuery(t)
	const perTenant = 48
	replies := make([]<-chan Prediction, 0, 2*perTenant)
	for i := 0; i < perTenant; i++ {
		for _, h := range []*Tenant{a, b} {
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
	as, bs := a.TenantStats(), b.TenantStats()
	if as.Succeeded != perTenant || bs.Succeeded != perTenant {
		t.Fatalf("succeeded a=%d b=%d, want %d each", as.Succeeded, bs.Succeeded, perTenant)
	}
	if as.Batches == 0 || bs.Batches == 0 {
		t.Fatalf("batch attribution missing: a=%d b=%d", as.Batches, bs.Batches)
	}
}

func TestParseTenants(t *testing.T) {
	tenants, err := ParseTenants(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 3 {
		t.Fatalf("tenants: %+v", tenants)
	}
	for i, tc := range tenants {
		if tc.Name != fmt.Sprintf("t%d", i) {
			t.Fatalf("tenant %d: %+v", i, tc)
		}
	}
	if got, err := ParseTenants(maxTenants); err != nil || len(got) != maxTenants {
		t.Fatalf("ParseTenants(%d): %d tenants, %v", maxTenants, len(got), err)
	}
	for _, n := range []int{0, maxTenants + 1} {
		if _, err := ParseTenants(n); !errors.Is(err, ErrBadTenantConfig) {
			t.Fatalf("ParseTenants(%d): %v, want ErrBadTenantConfig", n, err)
		}
	}
}
