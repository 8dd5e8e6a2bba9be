package vm_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

func snapshotValue(t *testing.T, s telemetry.Snapshot, name string) uint64 {
	t.Helper()
	for _, m := range s {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %s not in snapshot", name)
	return 0
}

// TestPublishTelemetry runs a small program with telemetry enabled and
// checks the published VM counters match Stats exactly and the per-level
// cache counters match the hierarchy's own statistics.
func TestPublishTelemetry(t *testing.T) {
	telemetry.Default.Reset()
	telemetry.Enable()
	t.Cleanup(telemetry.Disable)

	m := vm.MustNew()
	im, err := asm.Load(m, `
main:
    movi r1, 0
    movi r2, 10
loop:
    load r3, [d]
    addi r3, 1
    store [d], r3
    addi r1, 1
    cmp r1, r2
    jlt loop
    call helper
    load r0, [d]
    ret
helper:
    ret
.data
d: .quad 0
`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Call(im.MustEntry("main"))
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("result = %d, want 10", got)
	}

	snap := telemetry.Default.Snapshot()
	st := m.Stats
	for name, want := range map[string]uint64{
		"vm.cycles":         st.Cycles,
		"vm.instructions":   st.Instructions,
		"vm.loads":          st.Loads,
		"vm.stores":         st.Stores,
		"vm.branches":       st.Branches,
		"vm.taken_branches": st.TakenBranches,
		"vm.calls":          st.Calls,
	} {
		if v := snapshotValue(t, snap, name); v != want {
			t.Errorf("%s = %d, want %d", name, v, want)
		}
	}
	for _, lv := range m.Cache.Stats() {
		if v := snapshotValue(t, snap, "cache."+lv.Name+".hits"); v != lv.Hits {
			t.Errorf("cache.%s.hits = %d, want %d", lv.Name, v, lv.Hits)
		}
		if v := snapshotValue(t, snap, "cache."+lv.Name+".misses"); v != lv.Misses {
			t.Errorf("cache.%s.misses = %d, want %d", lv.Name, v, lv.Misses)
		}
		if v := snapshotValue(t, snap, "cache."+lv.Name+".evictions"); v != lv.Evictions {
			t.Errorf("cache.%s.evictions = %d, want %d", lv.Name, v, lv.Evictions)
		}
	}

	// A second call publishes only the delta, keeping counters == Stats.
	if _, err := m.Call(im.MustEntry("main")); err != nil {
		t.Fatal(err)
	}
	snap = telemetry.Default.Snapshot()
	if v := snapshotValue(t, snap, "vm.instructions"); v != m.Stats.Instructions {
		t.Errorf("after second call vm.instructions = %d, want %d", v, m.Stats.Instructions)
	}
}

// TestDecodeTableCounters checks the decode-table counters and their
// publication: a repeated call decodes nothing, a WriteJIT to one body
// re-decodes only that body, and the vm.decode_* counters published at
// Call boundaries equal the machine's own.
func TestDecodeTableCounters(t *testing.T) {
	telemetry.Default.Reset()
	telemetry.Enable()
	t.Cleanup(telemetry.Disable)

	m := vm.MustNew()
	a := installBody(t, m, "a:\n movi r0, 1\n addi r0, 1\n ret\n")
	b := installBody(t, m, "b:\n movi r0, 3\n ret\n")
	for _, fn := range []uint64{a, b} {
		if _, err := m.Call(fn); err != nil {
			t.Fatal(err)
		}
	}

	st, i0 := m.DecodeStats(), m.Stats.Instructions
	if r, err := m.Call(a); err != nil || r != 2 {
		t.Fatalf("a = %d, %v; want 2", r, err)
	}
	if got := m.DecodeStats().Misses - st.Misses; got != 0 {
		t.Errorf("second call of a decoded %d instructions, want 0", got)
	}
	if hits := m.Stats.Instructions - i0; hits != 4 { // 3 in a + the HALT stub
		t.Errorf("second call of a: %d table hits, want 4", hits)
	}

	// Patch b in place; a's decodes must survive.
	p, err := asm.AssembleAt("b:\n movi r0, 5\n ret\n", b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteJIT(b, p.Code); err != nil {
		t.Fatal(err)
	}
	st = m.DecodeStats()
	if _, err := m.Call(a); err != nil {
		t.Fatal(err)
	}
	if got := m.DecodeStats().Misses - st.Misses; got != 0 {
		t.Errorf("call of a after patching b decoded %d instructions, want 0", got)
	}
	if r, err := m.Call(b); err != nil || r != 5 {
		t.Fatalf("patched b = %d, %v; want 5", r, err)
	}
	if got := m.DecodeStats().Misses - st.Misses; got != 2 {
		t.Errorf("call of patched b decoded %d instructions, want 2", got)
	}

	snap := telemetry.Default.Snapshot()
	ds := m.DecodeStats()
	for name, want := range map[string]uint64{
		"vm.decode_misses":            ds.Misses,
		"vm.decode_invalidations":     ds.Invalidations,
		"vm.decode_invalidated_slots": ds.InvalidatedSlots,
		"vm.freed_code_faults":        ds.FreedCodeFaults,
	} {
		if v := snapshotValue(t, snap, name); v != want {
			t.Errorf("%s = %d, want %d", name, v, want)
		}
	}
	if ds.InvalidatedSlots == 0 {
		t.Error("WriteJIT over cached decodes invalidated no slots")
	}
}
