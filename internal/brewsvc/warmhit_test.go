package brewsvc_test

import (
	"context"
	"testing"

	"repro/internal/brewsvc"
	"repro/internal/stencil"
	"repro/internal/vm"
)

// warmService opens a service over the stencil workload and seeds the
// E1c apply specialization, returning the request that now hits the
// cache.
func warmService(tb testing.TB) (*brewsvc.Service, *brewsvc.Request) {
	tb.Helper()
	m := vm.MustNew()
	w, err := stencil.New(m, gridXS, gridYS)
	if err != nil {
		tb.Fatal(err)
	}
	svc := brewsvc.Open(m, brewsvc.WithWorkers(1))
	tb.Cleanup(svc.Close)
	cfg, args := w.ApplyConfig()
	req := &brewsvc.Request{Config: cfg, Fn: w.Apply, Args: args}
	if out := svc.Do(req); out.Degraded {
		tb.Fatalf("seed trace degraded: %s (%v)", out.Reason, out.Err)
	}
	if out := svc.Do(req); !out.CacheHit {
		tb.Fatal("second submit missed the cache")
	}
	return svc, req
}

// BenchmarkWarmHit measures the warm serve path: Submit+Wait on a cached
// key.
//
//	go test -run '^$' -bench WarmHit -benchmem ./internal/brewsvc/
func BenchmarkWarmHit(b *testing.B) {
	svc, req := warmService(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := svc.Submit(req).Wait(ctx)
		if err != nil || !out.CacheHit {
			b.Fatalf("hit %d: cacheHit=%v err=%v", i, out.CacheHit, err)
		}
	}
}

// TestWarmHitAllocs: a warm Submit+Wait allocates its Ticket and nothing
// else — key derivation, the cache lookup, the liveness check and the
// stub-address read are allocation-free.
func TestWarmHitAllocs(t *testing.T) {
	svc, req := warmService(t)
	ctx := context.Background()
	var out brewsvc.Outcome
	allocs := testing.AllocsPerRun(1000, func() {
		out, _ = svc.Submit(req).Wait(ctx)
	})
	if !out.CacheHit {
		t.Fatal("measured request was not a cache hit")
	}
	if allocs > 1 {
		t.Fatalf("warm hit allocated %v times/op, want <= 1 (the Ticket)", allocs)
	}
}

// TestWaitCompletedTicketCancelledContext: a finished outcome always wins
// over an already-cancelled context. A bare two-way select would pick at
// random between them.
func TestWaitCompletedTicketCancelledContext(t *testing.T) {
	svc, req := warmService(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 1000; i++ {
		out, err := svc.Submit(req).Wait(ctx)
		if err != nil {
			t.Fatalf("iteration %d: Wait returned %v for a completed ticket", i, err)
		}
		if !out.CacheHit {
			t.Fatalf("iteration %d: outcome is not a cache hit", i)
		}
	}
}
