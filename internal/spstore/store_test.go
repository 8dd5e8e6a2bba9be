package spstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func openStore(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func recKey(t *testing.T, rec *Record) Key {
	t.Helper()
	var k Key
	if _, err := fmt.Sscanf(rec.Key, "%16x%16x", &k.Hi, &k.Lo); err != nil {
		t.Fatal(err)
	}
	return k
}

func TestStorePutGet(t *testing.T) {
	s := openStore(t, Options{})
	rec := testRecord()
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(recKey(t, rec))
	if !ok {
		t.Fatal("just-put record missed")
	}
	if got.Key != rec.Key || got.CodeAddr != rec.CodeAddr || len(got.Code) != len(rec.Code) {
		t.Fatalf("got %+v, want %+v", got, rec)
	}
	if got.Generation == 0 {
		t.Fatal("record generation not stamped")
	}
	if s.Generation() == 0 {
		t.Fatal("manifest generation not bumped")
	}
	st := s.Stats()
	if st.Puts != 1 || st.LocalHits != 1 {
		t.Fatalf("stats = %+v, want 1 put / 1 local hit", st)
	}
}

func TestStoreMissIsClean(t *testing.T) {
	s := openStore(t, Options{})
	if _, ok := s.Get(Key{Hi: 1, Lo: 2}); ok {
		t.Fatal("empty store returned a hit")
	}
	if st := s.Stats(); st.LocalMisses != 1 || st.Quarantined != 0 {
		t.Fatalf("stats = %+v, want 1 clean miss", st)
	}
}

// TestStoreQuarantineOnCorrupt: a record corrupted on disk is never
// returned — it is moved to quarantine and reported as a miss; a repeat
// lookup is a clean miss (the bad file is gone, not retried forever).
func TestStoreQuarantineOnCorrupt(t *testing.T) {
	s := openStore(t, Options{})
	rec := testRecord()
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	k := recKey(t, rec)
	path := s.pathFor(k)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("corrupt record was served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt record still under its live name")
	}
	qents, err := os.ReadDir(filepath.Join(s.Dir(), quarantineDir))
	if err != nil || len(qents) != 1 {
		t.Fatalf("quarantine holds %d files (err %v), want 1", len(qents), err)
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("quarantined counter = %d, want 1", st.Quarantined)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("quarantined record resurrected")
	}
}

// TestStoreOpenSweepsTemps: stray temp files from a crashed writer are
// removed at Open; they were never renamed into place so no record is
// lost.
func TestStoreOpenSweepsTemps(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Options{Dir: dir})
	rec := testRecord()
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	s.Close()

	stray := filepath.Join(dir, "0123.rec.42"+tmpSuffix)
	if err := os.WriteFile(stray, []byte("half a record"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, Options{Dir: dir})
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatal("stray temp file survived Open")
	}
	if _, ok := s2.Get(recKey(t, rec)); !ok {
		t.Fatal("real record lost across reopen")
	}
}

// TestStoreManifestTornRecovery: a torn manifest (crash between record
// rename and manifest rename) does not take the store down — Open
// rebuilds the generation from the records themselves.
func TestStoreManifestTornRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Options{Dir: dir})
	rec := testRecord()
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	s.Close()

	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(`{"generation": 12`), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, Options{Dir: dir})
	if g := s2.Generation(); g != 1 {
		t.Fatalf("generation rebuilt as %d, want 1 (one record on disk)", g)
	}
	if _, ok := s2.Get(recKey(t, rec)); !ok {
		t.Fatal("record lost after manifest recovery")
	}

	// Missing manifest entirely: same recovery.
	s2.Close()
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	s3 := openStore(t, Options{Dir: dir})
	if g := s3.Generation(); g != 1 {
		t.Fatalf("generation after manifest loss = %d, want 1", g)
	}
}

// TestStoreInjectedWriteFaults drives each write-path fault point and
// proves the read path catches every one: the bad bytes land under the
// live name (through the same atomic rename) and are quarantined on first
// read, never decoded into a record.
func TestStoreInjectedWriteFaults(t *testing.T) {
	for _, point := range []string{InjectTornWrite, InjectTruncate, InjectBitFlip} {
		t.Run(point, func(t *testing.T) {
			armed := true
			s := openStore(t, Options{Inject: func(p string) bool {
				return armed && p == point
			}})
			rec := testRecord()
			if err := s.Put(rec); err != nil {
				t.Fatal(err)
			}
			armed = false
			k := recKey(t, rec)
			if _, ok := s.Get(k); ok {
				t.Fatalf("%s: corrupt record served", point)
			}
			if st := s.Stats(); st.Quarantined != 1 {
				t.Fatalf("%s: quarantined = %d, want 1", point, st.Quarantined)
			}
			// The store self-heals: a fresh clean put under the same key
			// works and is served.
			if err := s.Put(rec); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get(k); !ok {
				t.Fatalf("%s: clean re-put not served", point)
			}
		})
	}
}

// TestStoreInjectedStaleAssume: the stale-assumption fault writes a
// checksum-VALID record whose digests lie. The framing layer must accept
// it (that is the point — only revalidation can catch it).
func TestStoreInjectedStaleAssume(t *testing.T) {
	armed := true
	s := openStore(t, Options{Inject: func(p string) bool {
		return armed && p == InjectStaleAssume
	}})
	rec := testRecord()
	orig := rec.Frozen[0].Hash
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	armed = false
	got, ok := s.Get(recKey(t, rec))
	if !ok {
		t.Fatal("stale-assume record must pass framing checks")
	}
	if got.Frozen[0].Hash == orig && got.OrigHash == rec.OrigHash {
		t.Fatal("stale-assume injection did not perturb any digest")
	}
	if rec.Frozen[0].Hash != orig {
		t.Fatal("injection mutated the caller's record")
	}
}

func TestStoreFsck(t *testing.T) {
	s := openStore(t, Options{})
	good, bad := testRecord(), testRecord()
	bad.Key = Key{Hi: 7, Lo: 7}.String()
	for _, r := range []*Record{good, bad} {
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt one on disk behind the store's back.
	path := s.pathFor(recKey(t, bad))
	b, _ := os.ReadFile(path)
	if err := os.WriteFile(path, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 2 || rep.Corrupt != 1 || rep.Quarantined != 0 {
		t.Fatalf("fsck report = %+v, want 2 checked / 1 corrupt / 0 quarantined", rep)
	}
	if len(rep.Bad) != 1 || !strings.Contains(rep.Bad[0].Err, "length mismatch") {
		t.Fatalf("bad list = %+v", rep.Bad)
	}

	rep, err = s.Fsck(true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 1 || rep.Quarantined != 1 || rep.InQuarantine != 1 {
		t.Fatalf("fsck(quarantine) report = %+v", rep)
	}
	rep, err = s.Fsck(true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 1 || rep.Corrupt != 0 {
		t.Fatalf("post-quarantine fsck = %+v, want 1 clean record", rep)
	}
}

func TestStoreGC(t *testing.T) {
	s := openStore(t, Options{})
	var recs []*Record
	for i := 0; i < 4; i++ {
		r := testRecord()
		r.Key = Key{Hi: uint64(i + 1), Lo: uint64(i + 1)}.String()
		recs = append(recs, r)
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond) // distinct mod times for the LRU order
	}
	s.Quarantine(recKey(t, recs[0]), "test")
	infos, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 4 {
		t.Fatalf("list has %d entries, want 4 (3 live + 1 quarantined)", len(infos))
	}

	var liveBytes int64
	for _, in := range infos {
		if !in.Quarantined {
			liveBytes += in.Size
		}
	}
	// Budget for two records: the quarantined one is dropped outright and
	// the oldest live record evicted.
	rep, err := s.GC(liveBytes * 2 / 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.QuarantineDropped != 1 {
		t.Fatalf("gc dropped %d quarantined, want 1", rep.QuarantineDropped)
	}
	if rep.LRUDropped < 1 || rep.BytesLive > liveBytes*2/3 {
		t.Fatalf("gc report = %+v, want live bytes under budget", rep)
	}
	infos, err = s.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range infos {
		if in.Quarantined {
			t.Fatal("quarantined record survived GC")
		}
	}
	// The newest record is the last one GC would evict.
	if _, ok := s.Get(recKey(t, recs[3])); !ok {
		t.Fatal("newest record evicted before older ones")
	}
}

func TestStoreClosedPutRefused(t *testing.T) {
	s := openStore(t, Options{})
	s.Close()
	if err := s.Put(testRecord()); err == nil {
		t.Fatal("put after Close succeeded")
	}
}
