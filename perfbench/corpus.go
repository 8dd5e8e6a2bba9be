package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"repro/internal/brew"
	"repro/internal/minc"
	"repro/internal/oracle"
	"repro/internal/pgas"
	"repro/internal/vm"
)

// The cold-corpus workload is compile time over varied programs from the
// differential oracle's program generator (unrolling, inlining, folding,
// known memory) plus the stencil kernels at several grid widths and the
// PGAS sum. Every program gets a fresh machine and is
// rewritten once at EffortFull and once at EffortQuick through
// brew.Do(ModeDegrade); the differential check runs untimed afterwards.
// brew dominates the measured loop and brewsvc is bypassed.
//
// Generated programs' rewrite costs are heavy-tailed, so a seeded draw of
// all of them moved the percentiles by 15-20% from seed to seed. The
// corpus therefore holds a fixed core of generated programs plus a draw
// the seed makes. An operation is rewriting one program at both efforts,
// and its time is reported per 1,000 traced instructions (compile time at
// a stated input size): per rewrite, the full and quick costs form two
// modes and the median sat between them. Raw per-rewrite times appear in
// the report.
const (
	corpusCore   = 56 // oracle.Generated(1..corpusCore)
	corpusDrawn  = 16 // further programs drawn by the seed
	corpusSetups = 5
	// perKTraced scales a program's rewrite time to 1,000 traced
	// instructions.
	perKTraced = 1000
)

// corpusGrids are the stencil grid widths of the corpus' fixed part.
var corpusGrids = [][2]int{{12, 8}, {24, 16}, {32, 24}}

var efforts = []brew.Effort{brew.EffortFull, brew.EffortQuick}

// corpusItem is one program of the corpus.
type corpusItem struct {
	c        oracle.Case
	argsSeed int64 // seeds the probe arguments and the oracle trials
}

// pgasCase is the PGAS global sum rewritten for the current distribution
// (descriptor known, getter inlined), over random index ranges.
func pgasCase() (oracle.Case, error) {
	const nodes, bs, me = 4, 1 << 10, 1
	build := func() (*oracle.Instance, error) {
		m, err := vm.New()
		if err != nil {
			return nil, err
		}
		s, err := pgas.New(m, nodes, bs, me)
		if err != nil {
			return nil, err
		}
		if err := s.Fill(func(i int) float64 { return float64(i%17) * 0.25 }); err != nil {
			return nil, err
		}
		cfg := brew.NewConfig().
			SetParamPtrToKnown(1, pgas.DescriptorSize).
			SetParam(4, brew.ParamKnown)
		cfg.SetFuncOpts(s.GSum, brew.FuncOpts{BranchesUnknown: true, ResultsUnknown: true})
		return &oracle.Instance{M: m, Fn: s.GSum, Cfg: cfg, Args: []uint64{s.Garr, 0, 0, s.PgasGet}}, nil
	}
	proto, err := build()
	if err != nil {
		return oracle.Case{}, err
	}
	garr, get := proto.Args[0], proto.Args[3]
	return oracle.Case{
		Name:  "pgas-sum",
		Float: true,
		Build: build,
		NewArgs: func(r *rand.Rand) ([]uint64, []float64) {
			from := r.Intn(nodes * bs)
			to := from + r.Intn(min(512, nodes*bs-from)+1)
			return []uint64{garr, uint64(from), uint64(to), get}, nil
		},
	}, nil
}

// corpusSetup draws the corpus and compiles every generated program.
func corpusSetup(b *bench, ln *lane) ([]corpusItem, uint32, error) {
	rng := rand.New(rand.NewSource(b.seed))
	h := fnv.New32a()
	var items []corpusItem
	for i := 0; i < corpusCore+corpusDrawn; i++ {
		ps := int64(i + 1)
		if i >= corpusCore {
			ps = corpusCore + 1 + rng.Int63n(1<<40)
			h.Write([]byte(strconv.FormatInt(ps, 10) + ","))
		}
		// oracle.Generated(ps) builds the program GenProgram renders from
		// the same seed; compiling it here is the corpus' compile cost.
		src, _ := oracle.GenProgram(rand.New(rand.NewSource(ps)))
		ln.begin("minc.compile")
		_, err := minc.Compile(src)
		ln.end()
		if err != nil {
			return nil, 0, fmt.Errorf("generated program %d: %w", ps, err)
		}
		items = append(items, corpusItem{c: oracle.Generated(ps), argsSeed: ps})
	}
	for _, g := range corpusGrids {
		ln.begin("oracle.cases")
		cases, err := oracle.StencilCases(g[0], g[1])
		ln.end()
		if err != nil {
			return nil, 0, err
		}
		for _, c := range cases {
			c.Name = fmt.Sprintf("%s-%dx%d", c.Name, g[0], g[1])
			items = append(items, corpusItem{c: c, argsSeed: rng.Int63()})
		}
	}
	ln.begin("oracle.cases")
	pc, err := pgasCase()
	ln.end()
	if err != nil {
		return nil, 0, err
	}
	items = append(items, corpusItem{c: pc, argsSeed: rng.Int63()})
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return items, h.Sum32(), nil
}

func runCorpus(b *bench) error {
	var items []corpusItem
	for i := 0; i < corpusSetups; i++ {
		err := b.timeSetup(func(ln *lane) error {
			var err error
			var hash uint32
			items, hash, err = corpusSetup(b, ln)
			b.det["draw_hash"] = float64(hash)
			return err
		})
		if err != nil {
			return err
		}
	}

	var rewriteMS []float64
	var rewriteNS int64
	var first *brewTally // the first full pass: deterministic counts
	degraded := map[string]bool{}
	next := 0
	loop := func(d time.Duration, rec *recorder) (pass, error) {
		ln := rec.lane("bench.timed")
		defer ln.close()
		// An end-to-end run and the traced pass each cover the whole draw
		// at least once; the untraced pass of a traced run need not.
		full := rec != nil || !b.trace
		var vt vmTally
		var isaT isaTally
		var p pass
		var traced, ns int64
		var jitLive, jitFree uint64
		machines := 0
		tally := &brewTally{}
		done := 0
		start := time.Now()
		for time.Since(start) < d || (full && done < len(items)) {
			it := items[next%len(items)]
			next++
			ln.begin("oracle.build")
			inst, err := it.c.Build()
			ln.end()
			if err != nil {
				return p, fmt.Errorf("%s: build: %w", it.c.Name, err)
			}
			machines++
			// Start every program's rewrites from a collected heap, so the
			// previous program's garbage and its machine do not decide when
			// the collector interrupts this one.
			runtime.GC()
			addrs := make([]uint64, 0, len(efforts))
			var progMS float64
			progTraced := 0
			for _, eff := range efforts {
				cfg := inst.Cfg.Clone()
				cfg.Effort = eff
				out, dt, _ := tally.do(ln, inst.M, &brew.Request{Config: cfg, Fn: inst.Fn,
					Args: inst.Args, FArgs: inst.FArgs, Mode: brew.ModeDegrade})
				b.attempted++
				if out.Degraded {
					// A degraded rewrite completed: it returns the original
					// function with a named reason, and the differential
					// check verifies that path too.
					b.degraded++
					degraded[it.c.Name+" "+eff.String()+": "+out.Reason] = true
					addrs = append(addrs, 0)
					continue
				}
				n := out.Result.TracedInstrs
				progMS += float64(dt) / 1e6
				progTraced = max(progTraced, n)
				rewriteMS = append(rewriteMS, float64(dt)/1e6)
				traced += int64(n)
				ns += int64(dt)
				addrs = append(addrs, out.Addr)
				code, err := inst.M.Mem.ReadBytes(out.Addr, out.Result.CodeSize)
				if err == nil {
					err = isaT.roundTrip(ln, code, out.Addr)
				}
				if err != nil {
					b.wrongResult("%s (%s): generated code: %v", it.c.Name, eff, err)
				}
			}
			if progMS > 0 {
				p.ops = append(p.ops, progMS*perKTraced/float64(max(progTraced, 1)))
			}
			if first == nil {
				probeCycles(b, &vt, ln, it, inst, addrs)
			}
			jitLive += inst.M.JITLiveBytes()
			jitFree += inst.M.JITFreeBytes()
			done++
			if done == len(items) && first == nil {
				snap := *tally
				first = &snap
			}
		}
		if ns > 0 {
			p.perS = float64(traced) / perKTraced / (float64(ns) / 1e9)
		}
		rewriteNS += ns
		if rec != nil {
			tally.fill(b.layer)
			first.fillCounts(b.layer)
			vt.fill(b.layer)
			isaT.fill(b.layer)
			jitKB(b.layer, jitLive/uint64(machines), jitFree/uint64(machines))
		}
		return p, nil
	}
	if err := b.measure(loop); err != nil {
		return err
	}
	b.det["gen_cycles_ratio"] = geomean(b.gen)
	b.det["gen_code_bytes"] = float64(first.codeBytes)
	b.det["traced_instrs"] = float64(first.traced)
	b.det["emitted_final"] = float64(first.emitted)
	b.det["pass_work"] = float64(first.passWork)
	b.det["degraded"] = float64(first.degraded)
	if !b.trace {
		ops := append([]float64(nil), b.ops...)
		b.add("program_ms_per_ktraced_p50", quantile(ops, 0.50), "ms", len(ops))
		b.add("program_ms_per_ktraced_p90", quantile(ops, 0.90), "ms", len(ops))
		b.add("rewrite_ms_p50", quantile(rewriteMS, 0.50), "ms", len(rewriteMS))
		b.add("rewrite_ms_p95", quantile(rewriteMS, 0.95), "ms", len(rewriteMS))
		b.add("rewrites_per_s", float64(len(rewriteMS))/(float64(rewriteNS)/1e9), "1/s", len(rewriteMS))
		b.add("ktraced_per_s", b.opsPerS, "1/s", len(rewriteMS))
		b.add("gen_cycles_ratio", geomean(b.gen), "ratio", len(b.gen))
		b.add("gen_code_kb", float64(first.codeBytes)/1024, "KiB", 0)
		b.add("programs", float64(len(items)), "count", 0)
	}
	reasons := make([]string, 0, len(degraded))
	for k := range degraded {
		reasons = append(reasons, k)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Fprintf(os.Stderr, "  degraded: %s\n", r)
	}
	corpusCheck(b, items)
	return nil
}

// probeCycles calls the original and each rewrite once with the same
// seeded arguments, after one warming call of the original, and records
// the rewritten/original emulated-cycle ratios. A call that faults is
// left to the differential check.
func probeCycles(b *bench, vt *vmTally, ln *lane, it corpusItem, inst *oracle.Instance, addrs []uint64) {
	args, _ := it.c.NewArgs(rand.New(rand.NewSource(it.argsSeed)))
	if _, _, _, err := vt.call(ln, inst.M, inst.Fn, it.c.Float, args); err != nil {
		return
	}
	_, _, orig, err := vt.call(ln, inst.M, inst.Fn, it.c.Float, args)
	if err != nil || orig == 0 {
		return
	}
	for _, a := range addrs {
		if a == 0 {
			continue
		}
		if _, _, c, err := vt.call(ln, inst.M, a, it.c.Float, args); err == nil {
			b.gen = append(b.gen, float64(c)/float64(orig))
		}
	}
}

// corpusCheck runs the differential oracle, untimed, on every program at
// both efforts through the same ModeDegrade path the loop measured.
func corpusCheck(b *bench, items []corpusItem) {
	ln := b.rec.lane("bench.check")
	defer ln.close()
	// Each oracle run holds two fresh machines and their snapshots (about
	// 330 MB); collect sooner than the default to bound the peak heap.
	defer debug.SetGCPercent(debug.SetGCPercent(25))
	for _, it := range items {
		for _, eff := range efforts {
			c := it.c
			c.Effort = eff
			c.Degrade = true
			ln.begin("oracle.run")
			res, err := oracle.Run(c, it.argsSeed)
			ln.end()
			b.attempted++
			switch {
			case err != nil:
				b.wrongResult("%s (%s): oracle harness: %v", c.Name, eff, err)
			case res.Divergence != nil:
				b.wrongResult("%s (%s): %s", c.Name, eff, res.Divergence.Format())
			}
		}
	}
}
