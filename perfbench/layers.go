package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/brew"
	"repro/internal/isa"
	"repro/internal/vm"
)

// vmTally accumulates what the benchmark's emulated calls cost, read from
// the counters the machine and its cache model export.
type vmTally struct {
	calls          int64
	ns             int64
	instrs, cycles uint64
	l1Access       uint64
	l1Miss, l3Miss uint64
}

// call runs one top-level emulated call under a "vm.call" span. It
// returns the integer and float result registers and the emulated cycles
// the call took.
func (t *vmTally) call(ln *lane, m *vm.Machine, fn uint64, float bool, args []uint64) (uint64, float64, uint64, error) {
	s0, c0 := m.Stats, m.Cache.Stats()
	ln.begin("vm.call")
	t0 := time.Now()
	var r uint64
	var f float64
	var err error
	if float {
		f, err = m.CallFloat(fn, args, nil)
	} else {
		r, err = m.Call(fn, args...)
	}
	t.ns += int64(time.Since(t0))
	ln.end()
	c1 := m.Cache.Stats()
	t.calls++
	t.instrs += m.Stats.Instructions - s0.Instructions
	cycles := m.Stats.Cycles - s0.Cycles
	t.cycles += cycles
	t.l1Access += c1[0].Accesses() - c0[0].Accesses()
	t.l1Miss += c1[0].Misses - c0[0].Misses
	t.l3Miss += c1[len(c1)-1].Misses - c0[len(c0)-1].Misses
	return r, f, cycles, err
}

func (t *vmTally) fill(layer map[string]float64) {
	if t.calls == 0 {
		return
	}
	layer["vm.call_ms"] = float64(t.ns) / float64(t.calls) / 1e6
	layer["vm.instrs"] = float64(t.instrs)
	if t.instrs > 0 {
		layer["vm.ns_per_instr"] = float64(t.ns) / float64(t.instrs)
	}
	if t.l1Access > 0 {
		layer["cache.l1_miss_ratio"] = float64(t.l1Miss) / float64(t.l1Access)
	}
	layer["cache.l3_misses"] = float64(t.l3Miss)
}

// brewTally accumulates the benchmark's own brew.Do calls: host time,
// allocations (traced runs only) and the rewrite reports' deterministic
// counts.
type brewTally struct {
	calls          int64
	ns             int64
	allocs, bytes  uint64
	traced         int64
	emitted        int64
	passWork       int64
	codeBytes      int64
	degraded       int64
	measuredAllocs bool
}

// do calls brew.Do under a "brew.do" span. On a traced run (ln non-nil)
// it also charges the runtime's allocation counters across the call; the
// read stops the world, so untraced runs skip it.
func (t *brewTally) do(ln *lane, m *vm.Machine, req *brew.Request) (*brew.Outcome, time.Duration, error) {
	var ms0 runtime.MemStats
	if ln != nil {
		runtime.ReadMemStats(&ms0)
	}
	ln.begin("brew.do")
	t0 := time.Now()
	out, err := brew.Do(m, req)
	d := time.Since(t0)
	ln.end()
	if ln != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		t.allocs += ms1.Mallocs - ms0.Mallocs
		t.bytes += ms1.TotalAlloc - ms0.TotalAlloc
		t.measuredAllocs = true
	}
	t.calls++
	t.ns += int64(d)
	if out != nil && out.Degraded {
		t.degraded++
	} else if out != nil && out.Result != nil {
		t.codeBytes += int64(out.Result.CodeSize)
		t.traced += int64(out.Result.TracedInstrs)
		if rep := out.Result.Report; rep != nil {
			t.emitted += int64(rep.EmittedFinal)
			t.passWork += int64(rep.PassWork)
		}
	}
	return out, d, err
}

func (t *brewTally) fill(layer map[string]float64) {
	if t.calls == 0 {
		return
	}
	layer["brew.do_ms"] = float64(t.ns) / float64(t.calls) / 1e6
	if t.traced > 0 {
		layer["brew.ns_per_traced_instr"] = float64(t.ns) / float64(t.traced)
	}
	if t.measuredAllocs {
		layer["brew.allocs_per_do"] = float64(t.allocs) / float64(t.calls)
		layer["brew.alloc_kb_per_do"] = float64(t.bytes) / float64(t.calls) / 1024
	}
	t.fillCounts(layer)
}

// fillCounts reports the deterministic rewrite counts.
func (t *brewTally) fillCounts(layer map[string]float64) {
	layer["brew.traced_instrs"] = float64(t.traced)
	layer["brew.emitted_final"] = float64(t.emitted)
	layer["brew.pass_work"] = float64(t.passWork)
	layer["brew.code_bytes"] = float64(t.codeBytes)
	layer["brew.degraded"] = float64(t.degraded)
}

// jitKB reports a machine's live and free code-buffer space.
func jitKB(layer map[string]float64, live, free uint64) {
	layer["vm.jit_live_kb"] = float64(live) / 1024
	layer["vm.jit_free_kb"] = float64(free) / 1024
}

// isaTally accumulates decode and re-encode round trips of generated code.
type isaTally struct {
	instrs             int64
	decodeNS, encodeNS int64
}

// roundTrip decodes code (installed at addr) and re-encodes every
// instruction under "isa.decode" and "isa.encode" spans; the bytes must
// come back unchanged.
func (t *isaTally) roundTrip(ln *lane, code []byte, addr uint64) error {
	ln.begin("isa.decode")
	t0 := time.Now()
	ins, err := isa.DecodeAll(code, addr)
	t.decodeNS += int64(time.Since(t0))
	ln.end()
	if err != nil {
		return err
	}
	ln.begin("isa.encode")
	t0 = time.Now()
	out := make([]byte, 0, len(code))
	for _, in := range ins {
		b, err := isa.Encode(in)
		if err != nil {
			ln.end()
			return err
		}
		out = append(out, b...)
	}
	t.encodeNS += int64(time.Since(t0))
	ln.end()
	t.instrs += int64(len(ins))
	if !bytes.Equal(out, code) {
		return fmt.Errorf("re-encoding %d instructions at %#x changed the bytes", len(ins), addr)
	}
	return nil
}

func (t *isaTally) fill(layer map[string]float64) {
	if t.instrs == 0 {
		return
	}
	layer["isa.decode_ns_per_instr"] = float64(t.decodeNS) / float64(t.instrs)
	layer["isa.encode_ns_per_instr"] = float64(t.encodeNS) / float64(t.instrs)
}
