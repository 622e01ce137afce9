package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/repro/snowplow/internal/obs"
)

// TestConcurrentClosersAndSubmitters is the Close-lifecycle regression test
// (run with -race): several goroutines race Close against submitters on both
// the sync and async paths. The contract under test: Close is idempotent and
// safe concurrently, every accepted async query still delivers exactly one
// Prediction, and every submission after close fails with ErrServerClosed —
// never a panic, a hang, or a lost reply.
func TestConcurrentClosersAndSubmitters(t *testing.T) {
	s := newTestServerOpts(t, Options{Workers: 2, QueueSize: 64})
	q := testQuery(t)

	var wg sync.WaitGroup
	var accepted, delivered, closedErrs atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if g%2 == 0 {
					reply, err := s.InferAsync(q)
					if err != nil {
						if !errors.Is(err, ErrServerClosed) {
							t.Errorf("InferAsync: %v", err)
						}
						closedErrs.Add(1)
						continue
					}
					accepted.Add(1)
					<-reply
					delivered.Add(1)
				} else {
					_, err := s.Infer(q)
					if err != nil && !errors.Is(err, ErrServerClosed) {
						t.Errorf("Infer: %v", err)
					}
					if errors.Is(err, ErrServerClosed) {
						closedErrs.Add(1)
					}
				}
			}
		}(g)
	}
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(2 * time.Millisecond)
			s.Close()
		}()
	}
	wg.Wait()
	s.Close() // and once more sequentially

	if accepted.Load() != delivered.Load() {
		t.Fatalf("accepted %d async queries, delivered %d replies", accepted.Load(), delivered.Load())
	}
	if closedErrs.Load() == 0 {
		t.Log("close won no races this run (legal, just unexercised)")
	}
	if _, err := s.Infer(q); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Infer after close: %v, want ErrServerClosed", err)
	}
	if _, err := s.InferAsync(q); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("InferAsync after close: %v, want ErrServerClosed", err)
	}
	st := s.Stats()
	if st.Queries != st.Succeeded+st.Failed {
		t.Fatalf("accounting: Queries %d != Succeeded %d + Failed %d", st.Queries, st.Succeeded, st.Failed)
	}
}

// TestCloseRacesTenantRegistration: registering a tenant concurrently with
// Close either succeeds (and the handle then refuses with ErrServerClosed)
// or fails with ErrServerClosed — never panics or deadlocks.
func TestCloseRacesTenantRegistration(t *testing.T) {
	s := newTestServerOpts(t, Options{Workers: 1})
	q := testQuery(t)
	var wg sync.WaitGroup
	wg.Add(2)
	handles := make(chan *Tenant, 16)
	go func() {
		defer wg.Done()
		for i := 0; i < 16; i++ {
			h, err := s.Tenant(TenantConfig{Name: "t" + string(rune('a'+i))})
			if err != nil {
				if !errors.Is(err, ErrServerClosed) {
					t.Errorf("Tenant: %v", err)
				}
				continue
			}
			handles <- h
		}
	}()
	go func() {
		defer wg.Done()
		time.Sleep(time.Millisecond)
		s.Close()
	}()
	wg.Wait()
	close(handles)
	for h := range handles {
		if _, err := h.Infer(q); err != nil && !errors.Is(err, ErrServerClosed) {
			t.Fatalf("tenant infer around close: %v", err)
		}
	}
}

// TestStatsSumTenantsUnderClose pins the one count of each query outcome:
// Stats' per-query totals are sums over the tenants' counters. Submitters
// on three tenants race a Close while a sampler reads the registry; once
// everything settles, Stats equals the sum over TenantStats and the
// registry's pushed counters agree with both.
func TestStatsSumTenantsUnderClose(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServerOpts(t, Options{Workers: 2, QueueSize: 8, Metrics: reg})
	sampler := obs.NewSampler(reg, time.Millisecond)
	sampler.Start()
	defer sampler.Stop()
	handles := []Inferrer{s}
	for _, name := range []string{"a", "b"} {
		h, err := s.Tenant(TenantConfig{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	q := testQuery(t)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(h Inferrer) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if reply, err := h.InferAsync(q); err == nil {
					<-reply
				}
			}
		}(handles[g%len(handles)])
	}
	time.Sleep(5 * time.Millisecond)
	s.Close()
	wg.Wait()
	sampler.Stop()

	var sum TenantStats
	for _, ts := range s.TenantStats() {
		sum.Queries += ts.Queries
		sum.Succeeded += ts.Succeeded
		sum.Failed += ts.Failed
		sum.Served += ts.Served
		sum.Rejected += ts.Rejected
	}
	st := s.Stats()
	if st.Queries != sum.Queries || st.Succeeded != sum.Succeeded || st.Failed != sum.Failed ||
		st.Served != sum.Served || st.Rejected != sum.Rejected {
		t.Fatalf("Stats %+v does not sum the tenants %+v", st, sum)
	}
	if st.Queries == 0 || st.Queries != st.Succeeded+st.Failed {
		t.Fatalf("accounting: Queries %d, Succeeded %d, Failed %d", st.Queries, st.Succeeded, st.Failed)
	}
	vals := reg.Values()
	for name, want := range map[string]int64{
		"serve_queries_total":   st.Queries,
		"serve_succeeded_total": st.Succeeded,
		"serve_failed_total":    st.Failed,
		"serve_rejected_total":  st.Rejected,
		"serve_tenant_count":    int64(st.TenantCount),
	} {
		if vals[name] != want {
			t.Errorf("%s = %d, want %d", name, vals[name], want)
		}
	}
}
