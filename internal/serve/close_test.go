package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
