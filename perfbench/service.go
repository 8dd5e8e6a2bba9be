package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/brew"
	"repro/internal/brewsvc"
	"repro/internal/minc"
	"repro/internal/obs"
	"repro/internal/specmgr"
	"repro/internal/spstore"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// The service-mix workload is a closed loop of svcCallers goroutines, each
// submitting a request and waiting for it, over a fleet of function x
// guard-value keys drawn from a seeded Zipf stream. Requests ask for
// tier-0 code; the coordinator pumps promotions periodically. Phase A is
// the stream: first touches trace and write to the persistent store,
// repeats hit the cache. Phase B closes the service, rebuilds the machine
// identically, reopens it on the same store and re-requests every key in
// a fixed order. brewsvc's hit path carries most requests; misses
// exercise the queue, quick brew, specmgr install and spstore writes; the
// emulator is idle.
const (
	fleetFns    = 32
	fleetGuards = 8 // guard values 1..fleetGuards of parameter 2
	svcCallers  = 2
	svcSetups   = 15
	zipfS       = 1.2
	// promoteAfter is the served-request count that makes a tier-0
	// variant due for promotion: the Zipf head crosses it within a run.
	promoteAfter = 50_000
	pumpEvery    = 50 * time.Millisecond
	// hitSamples bounds the hit latencies kept per caller per pass.
	hitSamples = 100_000
	// Cache geometry: 512 slots for the 256 keys, so nothing is evicted.
	cacheShards, cachePerShard = 8, 64
)

// fleetSrc is the fleet's translation unit. The guarded parameter k is
// the loop bound, so each guard value specializes to a different unroll.
func fleetSrc() string {
	var sb strings.Builder
	for i := 0; i < fleetFns; i++ {
		fmt.Fprintf(&sb, `
long svc%d(long x, long k) {
    long r = %d;
    for (long i = 0; i < k; i++) { r = r + x * %d + i; }
    return r;
}`, i, i+1, i%7+2)
	}
	return sb.String()
}

// fleetRef is the reference result of svc<fn>(x, k).
func fleetRef(fn int, x, k uint64) uint64 {
	r := uint64(fn + 1)
	for i := uint64(0); i < k; i++ {
		r += x*uint64(fn%7+2) + i
	}
	return r
}

// svcKey is one specialization key: a fleet function and a guard value.
type svcKey struct {
	fn  int
	val uint64
}

func (k svcKey) request(fns []uint64) *brewsvc.Request {
	cfg := brew.NewConfig()
	cfg.Effort = brew.EffortQuick
	return &brewsvc.Request{
		Config: cfg,
		Fn:     fns[k.fn],
		Guards: []brew.ParamGuard{{Param: 2, Value: k.val}},
		Args:   []uint64{0, 0},
	}
}

// svcSys is one booted service: machine, fleet, store and service.
type svcSys struct {
	m   *vm.Machine
	fns []uint64
	st  *spstore.Store
	svc *brewsvc.Service
}

// bootService builds the machine and fleet and opens the store in dir and
// the service over both.
func bootService(ln *lane, dir string) (*svcSys, error) {
	ln.begin("vm.new")
	m, err := vm.New()
	ln.end()
	if err != nil {
		return nil, err
	}
	ln.begin("minc.compile")
	l, err := minc.CompileAndLink(m, fleetSrc(), nil)
	ln.end()
	if err != nil {
		return nil, err
	}
	s := &svcSys{m: m, fns: make([]uint64, fleetFns)}
	for i := range s.fns {
		if s.fns[i], err = l.FuncAddr(fmt.Sprintf("svc%d", i)); err != nil {
			return nil, err
		}
	}
	ln.begin("spstore.open")
	s.st, err = spstore.Open(spstore.Options{Dir: dir})
	ln.end()
	if err != nil {
		return nil, err
	}
	ln.begin("brewsvc.open")
	s.svc = brewsvc.Open(m,
		brewsvc.WithWorkers(1),
		brewsvc.WithCache(cacheShards, cachePerShard),
		brewsvc.WithPromotion(promoteAfter),
		brewsvc.WithStore(s.st))
	ln.end()
	return s, nil
}

func (s *svcSys) close() {
	s.svc.Close()
	s.st.Close()
}

// serve submits one request and waits for it under brewsvc spans. It
// returns the outcome and the Submit and Submit-to-completion times.
func (s *svcSys) serve(ln *lane, k svcKey) (brewsvc.Outcome, time.Duration, time.Duration, error) {
	req := k.request(s.fns)
	t0 := time.Now()
	ln.begin("brewsvc.submit")
	tk := s.svc.Submit(req)
	ln.end()
	t1 := time.Now()
	ln.begin("brewsvc.wait")
	out, err := tk.Wait(context.Background())
	ln.end()
	return out, t1.Sub(t0), time.Since(t0), err
}

// gateResult is what a gate saw: the served/original emulated-cycle
// ratios, the served code bytes and the live variants of the entries.
type gateResult struct {
	ratios   []float64
	code     int64
	variants int
}

// gate calls every key's served address once and compares the result
// with the original function and the reference.
func (s *svcSys) gate(b *bench, keys []svcKey, vt *vmTally, tag string) (gateResult, error) {
	var g gateResult
	entries := map[*specmgr.Entry]bool{}
	rng := rand.New(rand.NewSource(b.seed))
	for _, k := range keys {
		out, _, _, err := s.serve(nil, k)
		b.attempted++
		if err != nil || out.Degraded {
			b.failed++
			continue
		}
		if out.Variant != nil && out.Variant.Result() != nil {
			g.code += int64(out.Variant.Result().CodeSize)
		}
		if out.Entry != nil && !entries[out.Entry] {
			entries[out.Entry] = true
			g.variants += len(out.Entry.Variants())
		}
		x := uint64(rng.Intn(1000))
		want, _, orig, err := vt.call(nil, s.m, s.fns[k.fn], false, []uint64{x, k.val})
		if err != nil {
			return g, fmt.Errorf("%s gate: original svc%d: %w", tag, k.fn, err)
		}
		got, _, served, err := vt.call(nil, s.m, out.Addr, false, []uint64{x, k.val})
		ref := fleetRef(k.fn, x, k.val)
		if err != nil || got != want || got != ref {
			b.wrongResult("%s gate: svc%d(%d, %d) served %d (err %v), original %d, reference %d",
				tag, k.fn, x, k.val, got, err, want, ref)
			continue
		}
		g.ratios = append(g.ratios, float64(served)/float64(orig))
	}
	return g, nil
}

func runService(b *bench) error {
	base := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	var s *svcSys
	var dir string
	for i := 0; i < svcSetups; i++ {
		if s != nil {
			s.close()
			os.RemoveAll(dir)
		}
		d, err := os.MkdirTemp(base, "svc-store-")
		if err != nil {
			return err
		}
		dir = d
		if err := b.timeSetup(func(ln *lane) error {
			var err error
			s, err = bootService(ln, dir)
			return err
		}); err != nil {
			return err
		}
	}
	defer os.RemoveAll(dir)

	keys := make([]svcKey, 0, fleetFns*fleetGuards)
	for fn := 0; fn < fleetFns; fn++ {
		for v := 1; v <= fleetGuards; v++ {
			keys = append(keys, svcKey{fn, uint64(v)})
		}
	}
	// The seed decides which keys are hot.
	hot := append([]svcKey(nil), keys...)
	rand.New(rand.NewSource(b.seed)).Shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })
	// Caller c's stream in pass p (1-based).
	stream := func(p, c int) *rand.Zipf {
		return rand.NewZipf(rand.New(rand.NewSource(b.seed*1009+int64(p*svcCallers+c))), zipfS, 1, uint64(len(hot)-1))
	}
	h := fnv.New32a()
	z := stream(1, 0)
	for i := 0; i < 4096; i++ {
		k := hot[z.Uint64()]
		fmt.Fprintf(h, "%d/%d,", k.fn, k.val)
	}
	b.det["draw_hash"] = float64(h.Sum32())

	var misses []float64
	passes := 0
	loop := func(d time.Duration, rec *recorder) (pass, error) {
		passes++
		st0, sp0 := s.svc.Stats(), s.st.Stats()
		var stop atomic.Bool
		var wg sync.WaitGroup
		hits := make([]*reservoir, svcCallers)
		submits := make([]*reservoir, svcCallers)
		missMS := make([][]float64, svcCallers)
		codeBytes := make([]int64, svcCallers)
		counts := make([][3]int64, svcCallers) // attempted, failed, served
		errs := make([]error, svcCallers)
		start := time.Now()
		for c := 0; c < svcCallers; c++ {
			hits[c] = newReservoir(hitSamples, b.seed*131+int64(passes*svcCallers+c))
			submits[c] = newReservoir(hitSamples, b.seed*137+int64(passes*svcCallers+c))
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				ln := rec.lane("bench.timed")
				defer ln.close()
				z := stream(passes, c)
				for n := uint64(1); !stop.Load(); n++ {
					k := hot[z.Uint64()]
					if ln != nil {
						ln.req = uint64(c)<<48 | n
					}
					out, sub, total, err := s.serve(ln, k)
					counts[c][0]++
					if err != nil || out.Degraded {
						counts[c][1]++
						if err != nil && errs[c] == nil {
							errs[c] = err
						}
						continue
					}
					counts[c][2]++
					// The host's dispatch accounting: the caller is about
					// to run the served code (promotion hotness).
					if out.Variant != nil {
						out.Variant.NoteCall()
					}
					submits[c].add(float64(sub))
					if out.CacheHit {
						hits[c].add(float64(total) / 1e6)
						continue
					}
					missMS[c] = append(missMS[c], float64(total)/1e6)
					if out.Variant != nil && out.Variant.Result() != nil {
						codeBytes[c] += int64(out.Variant.Result().CodeSize)
					}
				}
			}(c)
		}
		var pumpErr error
		for pumpErr == nil && time.Since(start) < d {
			time.Sleep(pumpEvery)
			_, pumpErr = s.svc.PumpPromotions().AwaitAll(context.Background())
		}
		stop.Store(true)
		wg.Wait()
		wall := time.Since(start)
		if pumpErr == nil {
			_, pumpErr = s.svc.PumpPromotions().AwaitAll(context.Background())
		}
		if pumpErr != nil {
			return pass{}, pumpErr
		}

		var p pass
		var served, code int64
		var subs []float64
		for c := 0; c < svcCallers; c++ {
			b.attempted += counts[c][0]
			b.failed += counts[c][1]
			served += counts[c][2]
			p.ops = append(p.ops, hits[c].vals...)
			subs = append(subs, submits[c].vals...)
			misses = append(misses, missMS[c]...)
			code += codeBytes[c]
			if errs[c] != nil {
				fmt.Fprintf(os.Stderr, "  caller %d error: %v\n", c, errs[c])
			}
		}
		p.perS = float64(served) / wall.Seconds()
		if rec != nil {
			st1, sp1 := s.svc.Stats(), s.st.Stats()
			b.layer["brewsvc.submit_ns_p50"] = median(subs)
			if n := st1.Submitted - st0.Submitted; n > 0 {
				b.layer["brewsvc.hit_ratio"] = float64(st1.CacheHits-st0.CacheHits) / float64(n)
			}
			b.layer["brewsvc.coalesce_hits"] = float64(st1.CoalesceHits - st0.CoalesceHits)
			b.layer["brewsvc.traces"] = float64(st1.Traces - st0.Traces)
			b.layer["brewsvc.promotions"] = float64(st1.TierPromotions - st0.TierPromotions)
			rejected := st1.Rejected - st0.Rejected
			for i := range st1.Sheds {
				rejected += st1.Sheds[i] - st0.Sheds[i]
			}
			b.layer["brewsvc.rejected"] = float64(rejected)
			b.layer["spstore.puts"] = float64(sp1.Puts - sp0.Puts)
			serviceStages(b)
			b.layer["brew.code_bytes"] = float64(code)
			jitKB(b.layer, s.m.JITLiveBytes(), s.m.JITFreeBytes())
		}
		return p, nil
	}
	if err := b.measure(loop); err != nil {
		return err
	}

	// Phase A gate, with the stream quiesced and promotions awaited.
	var vt vmTally
	ga, err := s.gate(b, keys, &vt, "phase A")
	if err != nil {
		return err
	}
	b.layer["specmgr.variants"] = float64(ga.variants)
	evictions := s.svc.Stats().Evictions
	spA := s.st.Stats()
	s.close()

	// Phase B: warm boot on the same store.
	var rec *recorder
	if b.trace {
		rec = b.rec
		obs.Enable()
		telemetry.Enable()
	}
	ln := rec.lane("bench.timed")
	t0 := time.Now()
	w, err := bootService(ln, dir)
	if err != nil {
		ln.close()
		return err
	}
	for _, k := range keys {
		out, _, _, err := w.serve(ln, k)
		b.attempted++
		if err != nil || out.Degraded {
			b.failed++
		}
	}
	warm := time.Since(t0)
	ln.close()
	obs.Disable()
	telemetry.Disable()
	spB := w.st.Stats()
	gb, err := w.gate(b, keys, &vt, "phase B")
	w.close()
	if err != nil {
		return err
	}
	b.gen = gb.ratios
	b.det["gen_cycles_ratio"] = geomean(gb.ratios)
	b.det["gen_code_bytes"] = float64(gb.code)

	b.layer["spstore.warm_hits"] = float64(spB.WarmHits)
	b.layer["spstore.reval_ms"] = float64(spB.RevalNS) / 1e6
	b.layer["spstore.reval_fails"] = float64(spB.RevalFails)
	b.layer["spstore.quarantined"] = float64(spB.Quarantined)

	if !b.trace {
		ops := append([]float64(nil), b.ops...)
		b.add("hit_us_p50", 1000*quantile(ops, 0.50), "us", len(ops))
		b.add("hit_us_p99", 1000*quantile(ops, 0.99), "us", len(ops))
		b.add("miss_ms_p50", median(misses), "ms", len(misses))
		b.add("serve_rps", b.opsPerS, "1/s", int(b.attempted))
		b.add("warm_boot_ms", float64(warm)/1e6, "ms", len(keys))
		b.add("gen_cycles_ratio", geomean(gb.ratios), "ratio", len(gb.ratios))
		b.add("gen_code_kb", float64(gb.code)/1024, "KiB", 0)
		b.add("cache_evictions", float64(evictions), "count", 0)
		b.add("store_puts_phase_a", float64(spA.Puts), "count", 0)
		b.add("store_warm_hits_phase_b", float64(spB.WarmHits), "count", len(keys))
		b.add("store_reval_fails_phase_b", float64(spB.RevalFails), "count", len(keys))
	}
	if evictions != 0 {
		return fmt.Errorf("%d cache evictions: the key space must fit the cache", evictions)
	}
	return nil
}

// serviceStages reads the per-stage spans brewsvc records into obs during
// the traced pass, and the rewriter counters brew publishes to telemetry
// from the service's workers.
func serviceStages(b *bench) {
	var rewriteNS int64
	var rewrites uint64
	for _, q := range obs.StageSnapshot() {
		switch q.Stage {
		case obs.StageQueue:
			b.layer["brewsvc.queue_us_p99"] = max(b.layer["brewsvc.queue_us_p99"], float64(q.P99NS)/1e3)
		case obs.StageInstall:
			if q.Tier == obs.TierQuick {
				b.layer["specmgr.install_us_p50"] = float64(q.P50NS) / 1e3
			}
		case obs.StageRewrite:
			rewriteNS += q.SumNS
			rewrites += q.Count
		}
	}
	if rewrites > 0 {
		b.layer["brew.do_ms"] = float64(rewriteNS) / float64(rewrites) / 1e6
	}
	traced := telemetry.Default.Counter("brew.instrs_traced").Value()
	if traced > 0 {
		b.layer["brew.ns_per_traced_instr"] = float64(rewriteNS) / float64(traced)
	}
	b.layer["brew.traced_instrs"] = float64(traced)
	b.layer["brew.emitted_final"] = float64(telemetry.Default.Counter("brew.instrs_emitted").Value())
	b.layer["brew.degraded"] = float64(telemetry.Default.Counter("brew.degrades").Value())
}
