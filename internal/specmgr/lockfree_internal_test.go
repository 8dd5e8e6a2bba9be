package specmgr

import (
	"testing"
	"time"

	"repro/internal/stencil"
	"repro/internal/vm"
)

// TestHitReadsTakeNoManagerLock: Variant.Live and Entry.Addr — the two
// reads on the service's warm hit — must not acquire mgr.mu. They run
// while the test holds the lock; a read that takes it blocks until the
// deadline fails the test.
func TestHitReadsTakeNoManagerLock(t *testing.T) {
	m := vm.MustNew()
	w, err := stencil.New(m, 16, 12)
	if err != nil {
		t.Fatal(err)
	}
	g := New(m, Policy{})
	cfg, args := w.ApplyConfig()
	e, err := g.Specialize(cfg, w.Apply, args, nil)
	if err != nil {
		t.Fatal(err)
	}
	vs := e.Variants()
	if len(vs) != 1 {
		t.Fatalf("specialized entry has %d variants, want 1", len(vs))
	}
	v := vs[0]
	wantAddr := e.Addr()
	if wantAddr == w.Apply {
		t.Fatal("specialized entry has no stub")
	}

	type reads struct {
		live bool
		addr uint64
	}
	done := make(chan reads, 1)
	g.mu.Lock()
	go func() { done <- reads{live: v.Live(), addr: e.Addr()} }()
	var got reads
	select {
	case got = <-done:
		g.mu.Unlock()
	case <-time.After(5 * time.Second):
		g.mu.Unlock()
		t.Fatal("Variant.Live or Entry.Addr blocked on mgr.mu")
	}
	if !got.live || got.addr != wantAddr {
		t.Fatalf("reads under a held mgr.mu: live=%v addr=%#x, want true %#x", got.live, got.addr, wantAddr)
	}
}
