package stencil

import (
	"math"
	"testing"
)

// TestDeterministicRows pins the E1a, E1c, E2a, E2b and E3b rows at the
// reproduction sizing of exp.Defaults (64x48 grid, 3 sweeps, a fresh
// machine per row), the figures the committed BENCH JSON files record:
// emulated cycles, instruction counts and per-level cache hits and misses.
// All of them are deterministic, so any change is a behaviour change of
// the emulator, the cache model or the rewriter, never noise.
func TestDeterministicRows(t *testing.T) {
	const xs, ys, iters = 64, 48, 3
	type level struct{ hits, misses uint64 }
	rows := []struct {
		id             string
		run            func(w *Workload) (float64, error)
		cycles, instrs uint64
		cache          []level // L1, L2, L3
	}{
		{"E1a", func(w *Workload) (float64, error) {
			return w.RunSweeps(w.Apply, false, iters)
		}, 6617121, 2295732, []level{{870774, 2262}, {1488, 774}, {0, 774}}},
		{"E1c", func(w *Workload) (float64, error) {
			res, err := w.RewriteApply()
			if err != nil {
				return 0, err
			}
			return w.RunSweeps(res.Addr, false, iters)
		}, 2235825, 644424, []level{{263301, 2259}, {1488, 771}, {0, 771}}},
		{"E2a", func(w *Workload) (float64, error) {
			return w.RunSweeps(w.ApplyGrouped, true, iters)
		}, 10501961, 3296784, []level{{1589476, 2264}, {1488, 776}, {0, 776}}},
		{"E2b", func(w *Workload) (float64, error) {
			res, err := w.RewriteApplyGrouped()
			if err != nil {
				return 0, err
			}
			return w.RunSweeps(res.Addr, true, iters)
		}, 2193045, 644424, []level{{263301, 2259}, {1488, 771}, {0, 771}}},
		{"E3b", func(w *Workload) (float64, error) {
			res, err := w.RewriteSweep()
			if err != nil {
				return 0, err
			}
			return w.RunRewrittenSweeps(res.Addr, iters)
		}, 1924875, 600930, []level{{202842, 2262}, {1491, 771}, {0, 771}}},
	}
	for _, r := range rows {
		t.Run(r.id, func(t *testing.T) {
			w := newWorkload(t, xs, ys)
			c0, i0, l0 := w.M.Stats.Cycles, w.M.Stats.Instructions, w.M.Cache.Stats()
			sum, err := r.run(w)
			if err != nil {
				t.Fatal(err)
			}
			if want := w.Golden(iters); math.Abs(sum-want) > 1e-9 {
				t.Errorf("checksum = %g, want %g", sum, want)
			}
			if got := w.M.Stats.Cycles - c0; got != r.cycles {
				t.Errorf("cycles = %d, want %d", got, r.cycles)
			}
			if got := w.M.Stats.Instructions - i0; got != r.instrs {
				t.Errorf("instructions = %d, want %d", got, r.instrs)
			}
			l1 := w.M.Cache.Stats()
			if len(l1) != len(r.cache) {
				t.Fatalf("%d cache levels, want %d", len(l1), len(r.cache))
			}
			for i, want := range r.cache {
				got := level{l1[i].Hits - l0[i].Hits, l1[i].Misses - l0[i].Misses}
				if got != want {
					t.Errorf("%s hits/misses = %d/%d, want %d/%d",
						l1[i].Name, got.hits, got.misses, want.hits, want.misses)
				}
			}
		})
	}
}
