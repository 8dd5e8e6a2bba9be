package vm

import (
	"errors"
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
)

// ErrFreedCode reports a fetch from JIT memory released by FreeJIT. Freed
// ranges are filled with poisonByte, so a stale jump into a dead body
// faults instead of running the old code.
var ErrFreedCode = errors.New("vm: fetch from freed JIT code")

const (
	// Decode-table geometry: one lazily allocated page per
	// decodePageSize bytes of the executable span, one slot per byte.
	decodePageShift = 12
	decodePageSize  = 1 << decodePageShift
	decodePageMask  = decodePageSize - 1

	// maxInstrLen is the longest VX64 encoding (FRI with an 8-byte
	// immediate). A decode starting fewer bytes than this before a write
	// may overlap it.
	maxInstrLen = 10

	// poisonByte fills freed JIT ranges. It is not a valid opcode, so any
	// decode starting in a freed range fails.
	poisonByte = 0xFF
)

// decoded is one predecoded instruction with its decode-time constants.
// Entries are immutable: invalidation clears the slot pointing at one, so
// an instruction mid-execution keeps a valid entry.
type decoded struct {
	ins  isa.Instr
	cost uint64 // base cycle cost of ins.Op
}

type decodePage [decodePageSize]*decoded

// decodeTable caches decodes over [base, base+span), the smallest range
// covering every executable segment the machine maps at construction.
type decodeTable struct {
	base, span uint64
	pages      []*decodePage
}

func newDecodeTable(segs []*mem.Segment) decodeTable {
	var lo, hi uint64
	for _, s := range segs {
		if s.Perm&mem.PermExec == 0 {
			continue
		}
		if hi == 0 || s.Base < lo {
			lo = s.Base
		}
		if s.End() > hi {
			hi = s.End()
		}
	}
	span := hi - lo
	return decodeTable{
		base:  lo,
		span:  span,
		pages: make([]*decodePage, (span+decodePageSize-1)>>decodePageShift),
	}
}

// DecodeStats counts decode-table activity since the machine was built.
// Table hits over an interval are Stats.Instructions minus Misses over the
// same interval: every executed instruction is fetched exactly once.
type DecodeStats struct {
	Misses           uint64 // fetches decoded from memory
	Invalidations    uint64 // InvalidateCode calls, emulated code stores included
	InvalidatedSlots uint64 // cached decodes those calls dropped
	FreedCodeFaults  uint64 // fetches that hit freed JIT code (ErrFreedCode)
}

// DecodeStats returns the machine's decode-table counters.
func (m *Machine) DecodeStats() DecodeStats { return m.decode }

// cached returns the table's decode of the instruction at pc, or nil. It
// is small enough to inline into Step; a nil result falls back to decodeAt.
func (m *Machine) cached(pc uint64) *decoded {
	off := pc - m.dt.base
	if off >= m.dt.span {
		return nil
	}
	pg := m.dt.pages[off>>decodePageShift]
	if pg == nil {
		return nil
	}
	return pg[off&decodePageMask]
}

// decodeAt decodes the instruction at pc and caches it when pc lies in the
// table. Executable memory outside the table decodes into a per-machine
// scratch entry that the next uncached fetch overwrites.
func (m *Machine) decodeAt(pc uint64) (*decoded, error) {
	b, err := m.Mem.FetchSlice(pc)
	if err != nil {
		return nil, err
	}
	ins, err := isa.Decode(b, pc)
	if err != nil {
		if b[0] == poisonByte && pc-m.JITAlloc.Base() < m.JITAlloc.Size() {
			m.decode.FreedCodeFaults++
			return nil, fmt.Errorf("%w at 0x%x", ErrFreedCode, pc)
		}
		return nil, err
	}
	m.decode.Misses++
	off := pc - m.dt.base
	if off >= m.dt.span {
		m.scratch = decoded{ins: ins, cost: uint64(ins.Op.Cost())}
		return &m.scratch, nil
	}
	pg := m.dt.pages[off>>decodePageShift]
	if pg == nil {
		pg = new(decodePage)
		m.dt.pages[off>>decodePageShift] = pg
	}
	d := &decoded{ins: ins, cost: uint64(ins.Op.Cost())}
	pg[off&decodePageMask] = d
	return d, nil
}

// InvalidateCode drops every cached decode overlapping [addr, addr+n),
// including instructions that start up to maxInstrLen-1 bytes before addr
// and reach into the range. Any write to executable memory other than an
// emulated store (which invalidates itself) must be followed by a call
// covering the written bytes before the machine executes again; WriteJIT,
// InstallJIT, LoadCode and FreeJIT do so. Decodes outside the range stay
// cached. It takes the JIT lock, so it must not be called from an
// InstallJIT generator.
func (m *Machine) InvalidateCode(addr, n uint64) {
	m.jitMu.Lock()
	defer m.jitMu.Unlock()
	m.invalidateCode(addr, n)
}

// invalidateCode is InvalidateCode for callers that hold jitMu or are
// executing (emulated stores).
func (m *Machine) invalidateCode(addr, n uint64) {
	m.decode.Invalidations++
	if n == 0 {
		return
	}
	lo := max(addr, m.dt.base+maxInstrLen-1) - (maxInstrLen - 1)
	end := min(addr+n, m.dt.base+m.dt.span)
	for a := lo; a < end; a++ {
		off := a - m.dt.base
		pg := m.dt.pages[off>>decodePageShift]
		if pg == nil {
			continue
		}
		if d := pg[off&decodePageMask]; d != nil && a+uint64(d.ins.Len) > addr {
			pg[off&decodePageMask] = nil
			m.decode.InvalidatedSlots++
		}
	}
}
