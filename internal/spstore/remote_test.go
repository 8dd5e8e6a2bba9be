package spstore

import (
	"os"
	"sync/atomic"
	"testing"
	"time"
)

// TestRemoteWriteBehind: a put lands in the remote tier asynchronously;
// Drain bounds the wait.
func TestRemoteWriteBehind(t *testing.T) {
	r := NewMemRemote()
	s := openStore(t, Options{Remote: r})
	rec := testRecord()
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	if !s.Drain(2 * time.Second) {
		t.Fatal("drain timed out")
	}
	if r.Len() != 1 {
		t.Fatalf("remote holds %d blobs, want 1", r.Len())
	}
	if st := s.Stats(); st.RemotePuts != 1 || st.RemoteQueue != 0 {
		t.Fatalf("stats = %+v, want 1 remote put, empty queue", st)
	}
}

// TestRemoteGetWriteThrough: a local miss is served from the remote tier
// and written through to local, so the next lookup is a local hit.
func TestRemoteGetWriteThrough(t *testing.T) {
	r := NewMemRemote()
	rec := testRecord()
	enc, err := rec.encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Put(rec.Key, enc); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, Options{Remote: r})
	k := recKey(t, rec)
	got, ok := s.Get(k)
	if !ok || got.Key != rec.Key {
		t.Fatalf("remote record not served (ok=%v)", ok)
	}
	if st := s.Stats(); st.RemoteHits != 1 {
		t.Fatalf("remote hits = %d, want 1", st.RemoteHits)
	}
	if _, err := os.Stat(s.pathFor(k)); err != nil {
		t.Fatalf("write-through missing: %v", err)
	}
	s.Get(k)
	if st := s.Stats(); st.LocalHits != 1 {
		t.Fatalf("second lookup local hits = %d, want 1", st.LocalHits)
	}
}

// TestRemoteCorruptDropped: a corrupt remote blob is never decoded into a
// record and never written through.
func TestRemoteCorruptDropped(t *testing.T) {
	r := NewMemRemote()
	rec := testRecord()
	enc, _ := rec.encode()
	if err := r.Put(rec.Key, enc); err != nil {
		t.Fatal(err)
	}
	if !r.Corrupt(rec.Key) {
		t.Fatal("corrupt helper missed the key")
	}
	s := openStore(t, Options{Remote: r})
	k := recKey(t, rec)
	if _, ok := s.Get(k); ok {
		t.Fatal("corrupt remote blob served")
	}
	if _, err := os.Stat(s.pathFor(k)); !os.IsNotExist(err) {
		t.Fatal("corrupt remote blob written through to local")
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("quarantined counter = %d, want 1 (remote-corrupt)", st.Quarantined)
	}
}

// TestRemoteGetTimeoutBounded: a hung remote Get costs at most the per-op
// timeout on the miss path, is counted, and degrades to a miss.
func TestRemoteGetTimeoutBounded(t *testing.T) {
	r := NewMemRemote()
	r.FailGet = func(string) error { time.Sleep(time.Second); return nil }
	s := openStore(t, Options{Remote: r, RemoteTimeout: 20 * time.Millisecond})
	t0 := time.Now()
	_, ok := s.Get(Key{Hi: 1, Lo: 1})
	if ok {
		t.Fatal("hung remote produced a hit")
	}
	if el := time.Since(t0); el > 300*time.Millisecond {
		t.Fatalf("miss path blocked %v on a hung remote", el)
	}
	if st := s.Stats(); st.RemoteTOs != 1 {
		t.Fatalf("remote timeouts = %d, want 1", st.RemoteTOs)
	}
}

// TestRemoteBreaker: consecutive failures open the breaker (remote
// traffic stops, store serves local-only); after the cooldown a half-open
// probe succeeds and closes it again.
func TestRemoteBreaker(t *testing.T) {
	r := NewMemRemote()
	var failing atomic.Bool
	failing.Store(true)
	r.FailGet = func(string) error {
		if failing.Load() {
			return errInjectedRemote
		}
		return nil
	}
	s := openStore(t, Options{
		Remote:           r,
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
	})
	for i := 0; i < 3; i++ {
		s.Get(Key{Hi: 9, Lo: uint64(i)})
	}
	st := s.Stats()
	if !st.BreakerOpen || st.BreakerOpens != 1 || st.RemoteErrs != 3 {
		t.Fatalf("after 3 failures: %+v, want breaker open", st)
	}

	// Open breaker: the remote is not consulted at all.
	gets, _ := r.Ops()
	s.Get(Key{Hi: 9, Lo: 99})
	if g, _ := r.Ops(); g != gets {
		t.Fatal("open breaker let a remote call through")
	}

	// After the cooldown, a healthy probe closes the breaker.
	failing.Store(false)
	time.Sleep(60 * time.Millisecond)
	s.Get(Key{Hi: 9, Lo: 100}) // half-open probe (miss, but healthy)
	if st := s.Stats(); st.BreakerOpen {
		t.Fatalf("breaker still open after healthy probe: %+v", st)
	}
}

// TestRemotePutRetriesThenDrops: a persistently failing put is retried
// with backoff and finally dropped — bounded work, local tier unaffected.
func TestRemotePutRetriesThenDrops(t *testing.T) {
	r := NewMemRemote()
	r.FailPut = func(string) error { return errInjectedRemote }
	s := openStore(t, Options{
		Remote:           r,
		RemoteRetries:    3,
		BreakerThreshold: 100, // keep the breaker out of this test
	})
	rec := testRecord()
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	if !s.Drain(5 * time.Second) {
		t.Fatal("drain timed out")
	}
	st := s.Stats()
	if st.RemoteErrs != 3 || st.RemoteDrops != 1 || st.RemotePuts != 0 {
		t.Fatalf("stats = %+v, want 3 errors then 1 drop", st)
	}
	if _, ok := s.Get(recKey(t, rec)); !ok {
		t.Fatal("local tier lost the record")
	}
}

// TestCloseDuringBackoff is the regression test for Close racing a
// remote-put backoff schedule: with a put stuck retrying, Close must
// return promptly (the backoff sleep selects on the stop channel), and
// Drain must never wait past its deadline.
func TestCloseDuringBackoff(t *testing.T) {
	r := NewMemRemote()
	r.FailPut = func(string) error { return errInjectedRemote }
	s, err := Open(Options{
		Dir:              t.TempDir(),
		Remote:           r,
		RemoteRetries:    1000, // hours of backoff schedule if not aborted
		BreakerThreshold: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		rec := testRecord()
		rec.Key = Key{Hi: uint64(i + 1), Lo: 0xbeef}.String()
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	t0 := time.Now()
	if s.Drain(30 * time.Millisecond) {
		t.Fatal("drain reported success with a wedged remote")
	}
	if el := time.Since(t0); el > 500*time.Millisecond {
		t.Fatalf("drain overstayed its deadline: %v", el)
	}

	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung on a put stuck in backoff")
	}
	if pending := s.Stats().RemoteQueue; pending != 0 {
		t.Fatalf("queue not drained on Close: %d pending", pending)
	}
}
