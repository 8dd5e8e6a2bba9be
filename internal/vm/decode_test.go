package vm_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/mem"
	"repro/internal/vm"
)

// installBody assembles src at a fresh JIT address and installs it the way
// the rewriter does, returning the body's address.
func installBody(t *testing.T, m *vm.Machine, src string) uint64 {
	t.Helper()
	probe, err := asm.AssembleAt(src, vm.JITBase, 0)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := m.InstallJIT(len(probe.Code), func(at uint64) ([]byte, error) {
		p, err := asm.AssembleAt(src, at, 0)
		if err != nil {
			return nil, err
		}
		return p.Code, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

// TestFreedJITCodeFaults: a call through a stale address into a freed body
// must fault with ErrFreedCode, not return the old body's result, even
// though the body's decodes were cached by an earlier call.
func TestFreedJITCodeFaults(t *testing.T) {
	m := vm.MustNew()
	body := installBody(t, m, "f:\n movi r0, 7\n ret\n")
	if r, err := m.Call(body); err != nil || r != 7 {
		t.Fatalf("live call = %d, %v; want 7", r, err)
	}
	if err := m.FreeJIT(body); err != nil {
		t.Fatal(err)
	}
	r, err := m.Call(body)
	if !errors.Is(err, vm.ErrFreedCode) {
		t.Fatalf("stale call = %d, %v; want ErrFreedCode", r, err)
	}
	if got := m.DecodeStats().FreedCodeFaults; got != 1 {
		t.Errorf("FreedCodeFaults = %d, want 1", got)
	}
	if err := m.FreeJIT(body); err == nil {
		t.Error("double FreeJIT succeeded")
	}
}

// TestSelfModifyingStore: emulated stores into the writable code segment
// must invalidate the decodes they overwrite, including an instruction
// that starts before the stored byte.
func TestSelfModifyingStore(t *testing.T) {
	m := vm.MustNew()
	im, err := asm.Load(m, `
f:
    movi r0, 1
    ret
pokeb:
    storeb [r1], r2
    ret
poke:
    store [r1], r2
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	f := im.MustEntry("f")
	if r, _ := m.Call(f); r != 1 {
		t.Fatalf("first call = %d, want 1", r)
	}
	// "movi r0, 1" is [op][dst<<4|size][imm8]: the byte store hits the
	// immediate, two bytes into the cached instruction.
	if _, err := m.Call(im.MustEntry("pokeb"), f+2, 5); err != nil {
		t.Fatal(err)
	}
	if r, _ := m.Call(f); r != 5 {
		t.Fatalf("after STOREB call = %d, want 5", r)
	}
	// An 8-byte store rewriting the whole instruction word.
	w, err := m.Mem.Read64(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call(im.MustEntry("poke"), f, w&^0xFF0000|9<<16); err != nil {
		t.Fatal(err)
	}
	if r, _ := m.Call(f); r != 9 {
		t.Fatalf("after STORE call = %d, want 9", r)
	}
}

// TestInvalidateCodePartial: invalidating a range drops exactly the
// decodes overlapping it (an instruction starting before the range
// included) and leaves every other decode cached.
func TestInvalidateCodePartial(t *testing.T) {
	m := vm.MustNew()
	im, err := asm.Load(m, `
a:
    movi r0, 1
    addi r0, 2
    ret
b:
    movi r0, 3
    addi r0, 4
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	a, b := im.MustEntry("a"), im.MustEntry("b")
	for _, fn := range []uint64{a, b} {
		if _, err := m.Call(fn); err != nil {
			t.Fatal(err)
		}
	}
	before := m.DecodeStats()
	// One byte inside b's first instruction: only that decode overlaps,
	// a's trailing RET and ADDI end before it.
	m.InvalidateCode(b+1, 1)
	st := m.DecodeStats()
	if got := st.Invalidations - before.Invalidations; got != 1 {
		t.Errorf("invalidations = %d, want 1", got)
	}
	if got := st.InvalidatedSlots - before.InvalidatedSlots; got != 1 {
		t.Errorf("invalidated slots = %d, want 1", got)
	}
	if _, err := m.Call(a); err != nil {
		t.Fatal(err)
	}
	if got := m.DecodeStats().Misses - st.Misses; got != 0 {
		t.Errorf("call of a after invalidating b decoded %d instructions, want 0", got)
	}
	if r, err := m.Call(b); err != nil || r != 7 {
		t.Fatalf("b = %d, %v; want 7", r, err)
	}
	if got := m.DecodeStats().Misses - st.Misses; got != 1 {
		t.Errorf("call of b re-decoded %d instructions, want 1", got)
	}
}

// TestConcurrentInstallPatchFree races installs, stub-style patches and
// frees from several goroutines, as concurrent rewrites and evictions do
// on an idle machine, then checks every surviving body runs its latest
// code and every freed one faults.
func TestConcurrentInstallPatchFree(t *testing.T) {
	m := vm.MustNew()
	const workers, rounds = 4, 8
	type body struct {
		addr  uint64
		want  uint64
		freed bool
	}
	bodies := make([][]body, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				v := uint64(100*w + r)
				src := fmt.Sprintf("f:\n movi r0, %d\n ret\n", v)
				probe, err := asm.AssembleAt(src, vm.JITBase, 0)
				if err != nil {
					t.Error(err)
					return
				}
				addr, err := m.InstallJIT(len(probe.Code), func(at uint64) ([]byte, error) {
					p, err := asm.AssembleAt(src, at, 0)
					if err != nil {
						return nil, err
					}
					return p.Code, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				b := body{addr: addr, want: v}
				switch r % 3 {
				case 1: // patch in place
					b.want = v + 1
					p, err := asm.AssembleAt(fmt.Sprintf("f:\n movi r0, %d\n ret\n", b.want), addr, 0)
					if err == nil {
						err = m.WriteJIT(addr, p.Code)
					}
					if err != nil {
						t.Error(err)
						return
					}
				case 2:
					if err := m.FreeJIT(addr); err != nil {
						t.Error(err)
						return
					}
					b.freed = true
				}
				bodies[w] = append(bodies[w], b)
			}
		}(w)
	}
	wg.Wait()
	// A freed block may have been handed to a later install (all blocks
	// have the same size); only a block nobody reuses must fault.
	live := make(map[uint64]bool)
	for _, bs := range bodies {
		for _, b := range bs {
			live[b.addr] = live[b.addr] || !b.freed
		}
	}
	for _, bs := range bodies {
		for _, b := range bs {
			if b.freed && live[b.addr] {
				continue
			}
			r, err := m.Call(b.addr)
			switch {
			case b.freed && !errors.Is(err, vm.ErrFreedCode):
				t.Errorf("freed body 0x%x: %d, %v; want ErrFreedCode", b.addr, r, err)
			case !b.freed && (err != nil || r != b.want):
				t.Errorf("body 0x%x = %d, %v; want %d", b.addr, r, err, b.want)
			}
		}
	}
}

// TestFetchOutsideTable: executable memory mapped after construction lies
// outside the decode table; it still runs, decoding on every fetch.
func TestFetchOutsideTable(t *testing.T) {
	m := vm.MustNew()
	const base = 0x6000_0000
	if _, err := m.Mem.Map("extra", base, 0x1000, mem.PermRX|mem.PermWrite); err != nil {
		t.Fatal(err)
	}
	p, err := asm.AssembleAt("f:\n movi r0, 4\n ret\n", base, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.WriteBytes(base, p.Code); err != nil {
		t.Fatal(err)
	}
	// Both instructions decode on every call; the first call also decodes
	// the HALT stub, which is cached.
	for i, want := range []uint64{3, 2} {
		st := m.DecodeStats()
		if r, err := m.Call(base); err != nil || r != 4 {
			t.Fatalf("call %d = %d, %v; want 4", i, r, err)
		}
		if got := m.DecodeStats().Misses - st.Misses; got != want {
			t.Errorf("call %d decoded %d instructions, want %d", i, got, want)
		}
	}
}
