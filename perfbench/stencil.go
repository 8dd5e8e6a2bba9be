package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"repro/internal/brew"
	"repro/internal/stencil"
	"repro/internal/vm"
)

// The stencil workload is the paper's Section V grid at the default size.
// Set-up rewrites E1c, E2b and E3b once; the measured loop sweeps E1a,
// E1c, E2b and E3b in a seeded order. Nearly all of the loop is vm.Call
// plus the cache model and brew does no measured work, so an emulator
// change must move it and a rewriter change must leave it unchanged.
const (
	stencilXS, stencilYS = 64, 48
	stencilSetups        = 15
	// stencilIters is the sweep count of the BENCH_PR8.json E1-E3 rows.
	stencilIters = 3
)

// benchPR8Cycles are the emulated cycles BENCH_PR8.json commits for the
// default grid (stencilIters sweeps on a fresh machine). The benchmark's
// own measurement of the same kernels must reproduce them.
var benchPR8Cycles = map[string]uint64{
	"E1a": 6617121, "E1c": 2235825, "E2a": 10501961, "E2b": 2193045, "E3b": 1924875,
}

// stencilSys is one set-up: the compiled kernels and their rewrites.
type stencilSys struct {
	w             *stencil.Workload
	e1c, e2b, e3b uint64
	sizes         map[uint64]int // code bytes of each rewrite, by address
}

// kernelIDs are the sweeps the measured loop runs.
var kernelIDs = []string{"E1a", "E1c", "E2b", "E3b"}

// sweep runs one sweep of kernel id from src into dst and returns its
// checksum and emulated cycles.
func (s *stencilSys) sweep(t *vmTally, ln *lane, id string, src, dst uint64) (float64, uint64, error) {
	w := s.w
	xs, ys := uint64(w.XS), uint64(w.YS)
	var fn uint64
	var args []uint64
	switch id {
	case "E1a":
		fn, args = w.Sweep, []uint64{src, dst, xs, ys, w.Apply, w.S5}
	case "E1c":
		fn, args = w.Sweep, []uint64{src, dst, xs, ys, s.e1c, w.S5}
	case "E2a":
		fn, args = w.SweepGrouped, []uint64{src, dst, xs, ys, w.ApplyGrouped, w.SG5}
	case "E2b":
		fn, args = w.SweepGrouped, []uint64{src, dst, xs, ys, s.e2b, w.SG5}
	case "E3b":
		fn, args = s.e3b, []uint64{src, dst, xs, ys, w.Apply, w.S5}
	default:
		return 0, 0, fmt.Errorf("unknown kernel %s", id)
	}
	_, v, cycles, err := t.call(ln, w.M, fn, true, args)
	return v, cycles, err
}

// newStencilSys builds the kernels on a fresh machine and rewrites E1c,
// E2b and E3b with the experiment configurations.
func newStencilSys(ln *lane, bt *brewTally) (*stencilSys, error) {
	ln.begin("vm.new")
	m, err := vm.New()
	ln.end()
	if err != nil {
		return nil, err
	}
	// stencil.New is compile and link plus two small matrix writes.
	ln.begin("minc.compile")
	w, err := stencil.New(m, stencilXS, stencilYS)
	ln.end()
	if err != nil {
		return nil, err
	}
	s := &stencilSys{w: w, sizes: map[uint64]int{}}
	for _, r := range []struct {
		dst *uint64
		fn  uint64
		cfg func() (*brew.Config, []uint64)
	}{
		{&s.e1c, w.Apply, w.ApplyConfig},
		{&s.e2b, w.ApplyGrouped, w.GroupedConfig},
		{&s.e3b, w.Sweep, w.SweepConfig},
	} {
		cfg, args := r.cfg()
		out, _, err := bt.do(ln, m, &brew.Request{Config: cfg, Fn: r.fn, Args: args})
		if err != nil {
			return nil, err
		}
		*r.dst = out.Addr
		s.sizes[out.Addr] = out.Result.CodeSize
	}
	return s, nil
}

// freshCycles measures stencilIters sweeps of kernel id on a fresh set-up,
// the way the BENCH E1-E3 rows are measured, and checks the checksum.
func freshCycles(b *bench, id string, golden float64) (uint64, error) {
	s, err := newStencilSys(nil, &brewTally{})
	if err != nil {
		return 0, err
	}
	var t vmTally
	src, dst := s.w.M1, s.w.M2
	var sum float64
	var cycles uint64
	for i := 0; i < stencilIters; i++ {
		v, c, err := s.sweep(&t, nil, id, src, dst)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", id, err)
		}
		sum, cycles = v, cycles+c
		src, dst = dst, src
	}
	b.attempted++
	if !closeTo(sum, golden) {
		b.wrongResult("%s: %d-sweep checksum %v, golden %v", id, stencilIters, sum, golden)
	}
	return cycles, nil
}

func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

func runStencil(b *bench) error {
	var s *stencilSys
	var bt brewTally
	for i := 0; i < stencilSetups; i++ {
		bt = brewTally{}
		err := b.timeSetup(func(ln *lane) error {
			var err error
			s, err = newStencilSys(ln, &bt)
			return err
		})
		if err != nil {
			return err
		}
	}

	// Deterministic part: fresh-machine cycles, checked against the rows
	// committed in BENCH_PR8.json, and the generated-code cycle ratios.
	golden3 := s.w.Golden(stencilIters)
	cyc := map[string]uint64{}
	match := 1.0
	for _, id := range []string{"E1a", "E1c", "E2a", "E2b", "E3b"} {
		c, err := freshCycles(b, id, golden3)
		if err != nil {
			return err
		}
		cyc[id] = c
		b.det["cycles."+id] = float64(c)
		if c != benchPR8Cycles[id] {
			match = 0
			b.add("cycles_vs_bench_pr8."+id, float64(c)-float64(benchPR8Cycles[id]), "cycles", 0)
		}
	}
	b.det["bench_pr8_cycles_match"] = match
	b.add("bench_pr8_cycles_match", match, "bool", 0)
	b.gen = []float64{
		float64(cyc["E1c"]) / float64(cyc["E1a"]),
		float64(cyc["E2b"]) / float64(cyc["E2a"]),
		float64(cyc["E3b"]) / float64(cyc["E1a"]),
	}
	b.det["gen_cycles_ratio"] = geomean(b.gen)
	b.det["gen_code_bytes"] = float64(bt.codeBytes)
	b.add("gen_cycles_ratio", geomean(b.gen), "ratio", len(b.gen))
	b.add("gen_code_kb", float64(bt.codeBytes)/1024, "KiB", 0)

	// The rewritten bodies must decode and re-encode to the same bytes.
	var isaT isaTally
	ln := b.rec.lane("bench.check")
	for _, addr := range []uint64{s.e1c, s.e2b, s.e3b} {
		code, err := s.w.M.Mem.ReadBytes(addr, s.sizes[addr])
		if err == nil {
			err = isaT.roundTrip(ln, code, addr)
		}
		b.attempted++
		if err != nil {
			b.wrongResult("rewritten body at %#x: %v", addr, err)
		}
	}
	ln.close()
	isaT.fill(b.layer)

	// The seed draws the kernel order of every round.
	rng := rand.New(rand.NewSource(b.seed))
	h := fnv.New32a()
	orders := make([][]string, 4096)
	for i := range orders {
		orders[i] = append([]string(nil), kernelIDs...)
		rng.Shuffle(len(orders[i]), func(a, c int) { orders[i][a], orders[i][c] = orders[i][c], orders[i][a] })
		for _, id := range orders[i] {
			h.Write([]byte(id))
		}
	}
	b.det["draw_hash"] = float64(h.Sum32())

	golden1 := s.w.Golden(1)
	round := 0
	var perKernel map[string][]float64
	loop := func(d time.Duration, rec *recorder) (pass, error) {
		ln := rec.lane("bench.timed")
		defer ln.close()
		var t vmTally
		perKernel = map[string][]float64{}
		var p pass
		start := time.Now()
		for time.Since(start) < d {
			for _, id := range orders[round%len(orders)] {
				ln.begin("vm.write")
				err := s.w.ResetMatrices()
				ln.end()
				if err != nil {
					return p, err
				}
				t0 := time.Now()
				v, _, err := s.sweep(&t, ln, id, s.w.M1, s.w.M2)
				ms := float64(time.Since(t0)) / 1e6
				b.attempted++
				if err != nil {
					b.failed++
					continue
				}
				if !closeTo(v, golden1) {
					b.wrongResult("%s sweep: checksum %v, golden %v", id, v, golden1)
				}
				p.ops = append(p.ops, ms)
				perKernel[id] = append(perKernel[id], ms)
			}
			round++
		}
		p.perS = float64(len(p.ops)) / time.Since(start).Seconds()
		if rec != nil {
			t.fill(b.layer)
			bt.fill(b.layer)
			jitKB(b.layer, s.w.M.JITLiveBytes(), s.w.M.JITFreeBytes())
		}
		return p, nil
	}
	if err := b.measure(loop); err != nil {
		return err
	}
	if !b.trace {
		ops := append([]float64(nil), b.ops...)
		b.add("sweep_ms_p50", quantile(ops, 0.50), "ms", len(ops))
		b.add("sweep_ms_p95", quantile(ops, 0.95), "ms", len(ops))
		for _, id := range kernelIDs {
			b.add("sweep_ms_p50."+id, median(perKernel[id]), "ms", len(perKernel[id]))
		}
		b.add("sweeps_per_s", b.opsPerS, "1/s", len(b.ops))
	}
	return nil
}
