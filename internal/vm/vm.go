// Package vm implements the VX64 emulator: the execution substrate on which
// both the original compiled functions and the BREW-rewritten functions run.
// It charges a cycle cost per instruction plus memory-hierarchy latency from
// the cache model, standing in for the paper's hardware measurements.
//
// Fetch goes through a predecoded instruction table over the executable
// span (the code and JIT segments): lazily allocated pages with one slot
// per byte offset, each pointing at an immutable decoded entry that also
// carries the opcode's cycle cost, so a step does two slice lookups and
// copies no instruction. The table is invalidated by address range:
// InvalidateCode(addr, n) drops every decode overlapping the range,
// including one starting up to a maximum instruction length before it.
// LoadCode, WriteJIT, InstallJIT and FreeJIT invalidate what they write,
// emulated stores into the span invalidate themselves, and any other
// writer of executable memory (the asm and minc loaders, tests) must call
// InvalidateCode before the machine runs again. FreeJIT also fills the
// freed range with an undecodable byte, so a stale jump into released code
// faults with ErrFreedCode. The machine must not be executing during
// InstallJIT, WriteJIT or FreeJIT (a write-watchpoint handler patching a
// stub with WriteJIT is the one exception: it runs inside the store path).
package vm

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Default address-space layout.
const (
	CodeBase  = 0x0001_0000
	CodeSize  = 1 << 20
	JITBase   = 0x0020_0000
	JITSize   = 2 << 20
	DataBase  = 0x0040_0000
	DataSize  = 8 << 20
	HeapBase  = 0x0100_0000
	HeapSize  = 64 << 20
	StackTop  = 0x7000_0000
	StackSize = 8 << 20
)

// Execution errors.
var (
	ErrHalted    = errors.New("vm: halted")
	ErrBreak     = errors.New("vm: breakpoint")
	ErrStepLimit = errors.New("vm: step limit exceeded")
)

// CPU is the architectural register state.
type CPU struct {
	R     [isa.NumRegs]uint64
	F     [isa.NumRegs]float64
	V     [isa.NumVRegs][isa.VecLanes]float64
	Flags isa.Flags
	PC    uint64
}

// Stats accumulates execution counters.
type Stats struct {
	Instructions  uint64
	Cycles        uint64
	Loads         uint64
	Stores        uint64
	Branches      uint64
	TakenBranches uint64
	Calls         uint64
	OpCount       [isa.NumOpcodes]uint64
}

// Sub returns s - t, counter-wise; used to attribute costs to a region of
// execution.
func (s Stats) Sub(t Stats) Stats {
	out := s
	out.Instructions -= t.Instructions
	out.Cycles -= t.Cycles
	out.Loads -= t.Loads
	out.Stores -= t.Stores
	out.Branches -= t.Branches
	out.TakenBranches -= t.TakenBranches
	out.Calls -= t.Calls
	for i := range out.OpCount {
		out.OpCount[i] -= t.OpCount[i]
	}
	return out
}

// RegionCost adds extra access latency for an address range; the PGAS
// substrate uses it to model remote-node (RDMA) memory.
type RegionCost struct {
	Base, End uint64 // [Base, End)
	Extra     int    // cycles added per access
	Count     uint64 // accesses observed (updated by the machine)
}

// Machine bundles CPU, memory, cache and allocators into one executable
// system instance.
type Machine struct {
	CPU   CPU
	Mem   *mem.Memory
	Cache *cache.Hierarchy // nil disables memory-latency modeling
	Stats Stats

	CodeAlloc *mem.Allocator // static program code
	JITAlloc  *mem.Allocator // rewriter output
	DataAlloc *mem.Allocator // globals
	HeapAlloc *mem.Allocator // runtime allocations

	// OnLoad/OnStore observe data memory traffic (profiling substrate).
	OnLoad  func(addr uint64, size int)
	OnStore func(addr uint64, size int)
	// OnStoreValue observes every architectural store together with the
	// value written (low size*8 bits; vector stores report one entry per
	// lane). Unlike OnStore it also fires for stack traffic (PUSH, PUSHF
	// and CALL return-address pushes), so a consumer sees the complete,
	// ordered store journal of a run. The differential oracle uses it to
	// compare original and rewritten executions store by store.
	OnStoreValue func(addr uint64, size int, val uint64)
	// OnCall observes CALL/CALLR targets; the profiler uses it for value
	// profiling of arguments.
	OnCall func(target uint64, cpu *CPU)

	// FuncCost charges extra cycles when the given address is called,
	// modeling external routines (e.g. an RDMA transfer helper).
	FuncCost map[uint64]int

	// RegionCosts model slow memory regions.
	RegionCosts []*RegionCost

	// UserStepLimit overrides DefaultStepLimit for Call/CallFloat when
	// positive.
	UserStepLimit int64

	// Prof, when non-nil, samples the PC and simulated call stack every
	// Prof.Interval cycles (see AttachProfiler). Costs one nil check per
	// instruction when detached; never charges emulated cycles.
	Prof *Profiler

	// Telemetry delta baselines: counters already published to the
	// process-wide registry at the last Call/CallFloat boundary.
	pubStats  Stats
	pubCache  []cacheLevelStats
	pubDecode DecodeStats

	// jitMu serializes JIT allocation and installation, allowing several
	// rewrites to run concurrently (their traces only read memory).
	jitMu sync.Mutex

	// watches are the installed write-watchpoints (see watch.go). nil when
	// none are armed, so the store path pays one length check.
	watches []*Watch

	haltAddr uint64

	// dt is the predecoded instruction table over the executable span
	// (see decode.go); scratch holds a decode from outside it.
	dt      decodeTable
	scratch decoded
	decode  DecodeStats
}

// New builds a machine with the default layout and the default cache
// hierarchy.
func New() (*Machine, error) {
	m := &Machine{
		Mem:      &mem.Memory{},
		Cache:    cache.Default(),
		FuncCost: make(map[uint64]int),
	}
	segs := []struct {
		name string
		base uint64
		size uint64
		perm mem.Perm
	}{
		{"code", CodeBase, CodeSize, mem.PermRX | mem.PermWrite},
		{"jit", JITBase, JITSize, mem.PermRWX},
		{"data", DataBase, DataSize, mem.PermRW},
		{"heap", HeapBase, HeapSize, mem.PermRW},
		{"stack", StackTop - StackSize, StackSize, mem.PermRW},
	}
	for _, s := range segs {
		if _, err := m.Mem.Map(s.name, s.base, s.size, s.perm); err != nil {
			return nil, err
		}
	}
	m.dt = newDecodeTable(m.Mem.Segments())
	m.CodeAlloc = mem.NewAllocator(CodeBase, CodeSize, 16)
	m.JITAlloc = mem.NewAllocator(JITBase, JITSize, 16)
	m.DataAlloc = mem.NewAllocator(DataBase, DataSize, 16)
	m.HeapAlloc = mem.NewAllocator(HeapBase, HeapSize, 16)

	// Reserve a HALT stub used as the return address of top-level calls.
	stub, err := m.CodeAlloc.Alloc(16)
	if err != nil {
		return nil, err
	}
	b, err := isa.Encode(isa.MakeNone(isa.HALT))
	if err != nil {
		return nil, err
	}
	if err := m.Mem.WriteBytes(stub, b); err != nil {
		return nil, err
	}
	m.haltAddr = stub
	m.CPU.R[isa.SP] = StackTop - 64
	return m, nil
}

// MustNew is New for static setups that cannot fail.
func MustNew() *Machine {
	m, err := New()
	if err != nil {
		panic(err)
	}
	return m
}

// HaltAddr returns the address of the reserved HALT stub.
func (m *Machine) HaltAddr() uint64 { return m.haltAddr }

// LoadCode copies encoded instructions into the static code segment and
// returns their address.
func (m *Machine) LoadCode(code []byte) (uint64, error) {
	addr, err := m.CodeAlloc.Alloc(uint64(len(code)))
	if err != nil {
		return 0, err
	}
	if err := m.Mem.WriteBytes(addr, code); err != nil {
		return 0, err
	}
	m.InvalidateCode(addr, uint64(len(code)))
	return addr, nil
}

// WriteJIT copies rewriter output into the JIT segment at addr (previously
// reserved from JITAlloc) under the JIT lock and invalidates the decodes
// the write overlaps. Outside a write-watchpoint handler, the machine must
// not be executing meanwhile.
func (m *Machine) WriteJIT(addr uint64, code []byte) error {
	m.jitMu.Lock()
	defer m.jitMu.Unlock()
	if err := m.Mem.WriteBytes(addr, code); err != nil {
		return err
	}
	m.invalidateCode(addr, uint64(len(code)))
	return nil
}

// InstallJIT reserves size bytes of executable JIT space, calls gen with
// the final address to produce relocated code, and installs it. The whole
// sequence holds the machine's JIT lock, so multiple rewrites may install
// concurrently; the machine must not be executing meanwhile.
func (m *Machine) InstallJIT(size int, gen func(addr uint64) ([]byte, error)) (uint64, error) {
	m.jitMu.Lock()
	defer m.jitMu.Unlock()
	addr, err := m.JITAlloc.Alloc(uint64(size) + 1)
	if err != nil {
		return 0, err
	}
	// Any failure (or panic) past this point must give the reservation
	// back, or repeated failed rewrites leak the code buffer dry.
	installed := false
	defer func() {
		if !installed {
			_ = m.JITAlloc.Free(addr)
		}
	}()
	code, err := gen(addr)
	if err != nil {
		return 0, err
	}
	if len(code) != size {
		return 0, fmt.Errorf("vm: generated code size changed: %d -> %d", size, len(code))
	}
	if err := m.Mem.WriteBytes(addr, code); err != nil {
		return 0, err
	}
	installed = true
	m.invalidateCode(addr, uint64(size))
	return addr, nil
}

// fault decorates an execution error with the current PC.
func (m *Machine) fault(err error) error {
	return fmt.Errorf("vm: at pc=0x%x: %w", m.CPU.PC, err)
}

// effAddr computes the effective address of a memory operand.
func (m *Machine) effAddr(mr isa.MemRef) uint64 {
	var a uint64
	if mr.HasBase() {
		a += m.CPU.R[mr.Base]
	}
	if mr.HasIndex() {
		a += m.CPU.R[mr.Index] * uint64(mr.Scale)
	}
	return a + uint64(int64(mr.Disp))
}

func (m *Machine) chargeMem(addr uint64, size int, isStore bool) {
	if isStore {
		m.Stats.Stores++
		if m.OnStore != nil {
			m.OnStore(addr, size)
		}
		if len(m.watches) > 0 {
			m.hitWatches(addr, size)
		}
		// Self-modifying code: the code segment is writable.
		if addr-m.dt.base < m.dt.span {
			m.invalidateCode(addr, uint64(size))
		}
	} else {
		m.Stats.Loads++
		if m.OnLoad != nil {
			m.OnLoad(addr, size)
		}
	}
	if m.Cache != nil {
		m.Stats.Cycles += uint64(m.Cache.Access(addr, size))
	}
	for _, rc := range m.RegionCosts {
		if addr >= rc.Base && addr < rc.End {
			m.Stats.Cycles += uint64(rc.Extra)
			rc.Count++
		}
	}
}

// noteStore reports one completed store to the journal hook, masking the
// value to the bytes actually written.
func (m *Machine) noteStore(addr uint64, size int, val uint64) {
	if m.OnStoreValue == nil {
		return
	}
	if size < 8 {
		val &= 1<<(8*uint(size)) - 1
	}
	m.OnStoreValue(addr, size, val)
}

func (m *Machine) push(v uint64) error {
	m.CPU.R[isa.SP] -= 8
	addr := m.CPU.R[isa.SP]
	if err := m.Mem.Write64(addr, v); err != nil {
		return err
	}
	m.chargeMem(addr, 8, true)
	m.noteStore(addr, 8, v)
	return nil
}

func (m *Machine) pop() (uint64, error) {
	addr := m.CPU.R[isa.SP]
	v, err := m.Mem.Read64(addr)
	if err != nil {
		return 0, err
	}
	m.chargeMem(addr, 8, false)
	m.CPU.R[isa.SP] += 8
	return v, nil
}

// Step executes one instruction. It returns ErrHalted on HALT and ErrBreak
// on BRK.
func (m *Machine) Step() error {
	c := &m.CPU
	d := m.cached(c.PC)
	if d == nil {
		var err error
		if d, err = m.decodeAt(c.PC); err != nil {
			return m.fault(err)
		}
	}
	ins := &d.ins
	next := c.PC + uint64(ins.Len)
	m.Stats.Instructions++
	m.Stats.OpCount[ins.Op]++
	m.Stats.Cycles += d.cost
	if m.Prof != nil && m.Stats.Cycles >= m.Prof.nextAt {
		m.Prof.sample(m.Stats.Cycles, c.PC)
	}

	switch ins.Op {
	case isa.NOP:

	case isa.HALT:
		return ErrHalted

	case isa.BRK:
		c.PC = next
		return ErrBreak

	case isa.MOV, isa.ADD, isa.SUB, isa.IMUL, isa.IDIV, isa.IREM, isa.AND,
		isa.OR, isa.XOR, isa.SHL, isa.SHR, isa.SAR, isa.CMP, isa.TEST:
		r, fl, writes, aerr := isa.EvalALU(ins.Op, c.R[ins.Dst.Reg], c.R[ins.Src.Reg])
		if aerr != nil {
			return m.fault(aerr)
		}
		if writes {
			c.R[ins.Dst.Reg] = r
		}
		if isa.SetsFlags(ins.Op) {
			c.Flags = fl
		}

	case isa.MOVI, isa.ADDI, isa.SUBI, isa.IMULI, isa.ANDI, isa.ORI,
		isa.XORI, isa.SHLI, isa.SHRI, isa.SARI, isa.CMPI:
		r, fl, writes, aerr := isa.EvalALU(ins.Op, c.R[ins.Dst.Reg], uint64(ins.Src.Imm))
		if aerr != nil {
			return m.fault(aerr)
		}
		if writes {
			c.R[ins.Dst.Reg] = r
		}
		if isa.SetsFlags(ins.Op) {
			c.Flags = fl
		}

	case isa.NEG, isa.NOT:
		r, fl, setsFl := isa.EvalALU1(ins.Op, c.R[ins.Dst.Reg])
		c.R[ins.Dst.Reg] = r
		if setsFl {
			c.Flags = fl
		}

	case isa.LEA:
		c.R[ins.Dst.Reg] = m.effAddr(ins.Src.Mem)

	case isa.LOAD, isa.LOADB:
		addr := m.effAddr(ins.Src.Mem)
		size := 8
		if ins.Op == isa.LOADB {
			size = 1
		}
		v, merr := m.Mem.ReadN(addr, size)
		if merr != nil {
			return m.fault(merr)
		}
		m.chargeMem(addr, size, false)
		c.R[ins.Dst.Reg] = v

	case isa.STORE, isa.STOREB:
		addr := m.effAddr(ins.Dst.Mem)
		size := 8
		if ins.Op == isa.STOREB {
			size = 1
		}
		if merr := m.Mem.WriteN(addr, c.R[ins.Src.Reg], size); merr != nil {
			return m.fault(merr)
		}
		m.chargeMem(addr, size, true)
		m.noteStore(addr, size, c.R[ins.Src.Reg])

	case isa.PUSH:
		if err := m.push(c.R[ins.Dst.Reg]); err != nil {
			return m.fault(err)
		}

	case isa.POP:
		v, perr := m.pop()
		if perr != nil {
			return m.fault(perr)
		}
		c.R[ins.Dst.Reg] = v

	case isa.PUSHF:
		if err := m.push(c.Flags.Bits()); err != nil {
			return m.fault(err)
		}

	case isa.POPF:
		v, perr := m.pop()
		if perr != nil {
			return m.fault(perr)
		}
		c.Flags = isa.FlagsFromBits(v)

	case isa.SETCC:
		if ins.CC.Holds(c.Flags) {
			c.R[ins.Dst.Reg] = 1
		} else {
			c.R[ins.Dst.Reg] = 0
		}

	case isa.JMP:
		m.Stats.Branches++
		m.Stats.TakenBranches++
		c.PC = ins.Target()
		return nil

	case isa.JMPR:
		m.Stats.Branches++
		m.Stats.TakenBranches++
		c.PC = c.R[ins.Dst.Reg]
		return nil

	case isa.JCC:
		m.Stats.Branches++
		if ins.CC.Holds(c.Flags) {
			m.Stats.TakenBranches++
			m.Stats.Cycles++ // taken-branch penalty
			c.PC = ins.Target()
			return nil
		}

	case isa.CALL, isa.CALLR:
		target := ins.Target()
		if ins.Op == isa.CALLR {
			target = c.R[ins.Dst.Reg]
		}
		m.Stats.Calls++
		if m.OnCall != nil {
			m.OnCall(target, c)
		}
		if extra, ok := m.FuncCost[target]; ok {
			m.Stats.Cycles += uint64(extra)
		}
		if err := m.push(next); err != nil {
			return m.fault(err)
		}
		if m.Prof != nil {
			m.Prof.pushCall(target)
		}
		c.PC = target
		return nil

	case isa.RET:
		ra, perr := m.pop()
		if perr != nil {
			return m.fault(perr)
		}
		if m.Prof != nil {
			m.Prof.popCall()
		}
		c.PC = ra
		return nil

	case isa.FMOV, isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV, isa.FSQRT, isa.FCMP:
		r, fl, writes := isa.EvalFPU(ins.Op, c.F[ins.Dst.Reg], c.F[ins.Src.Reg])
		if writes {
			c.F[ins.Dst.Reg] = r
		}
		if ins.Op == isa.FCMP {
			c.Flags = fl
		}

	case isa.FMOVI:
		c.F[ins.Dst.Reg] = math.Float64frombits(uint64(ins.Src.Imm))

	case isa.FNEG:
		c.F[ins.Dst.Reg] = -c.F[ins.Dst.Reg]

	case isa.FLOAD:
		addr := m.effAddr(ins.Src.Mem)
		v, merr := m.Mem.ReadF64(addr)
		if merr != nil {
			return m.fault(merr)
		}
		m.chargeMem(addr, 8, false)
		c.F[ins.Dst.Reg] = v

	case isa.FSTORE:
		addr := m.effAddr(ins.Dst.Mem)
		if merr := m.Mem.WriteF64(addr, c.F[ins.Src.Reg]); merr != nil {
			return m.fault(merr)
		}
		m.chargeMem(addr, 8, true)
		m.noteStore(addr, 8, math.Float64bits(c.F[ins.Src.Reg]))

	case isa.CVTIF:
		c.F[ins.Dst.Reg] = float64(int64(c.R[ins.Src.Reg]))

	case isa.CVTFI:
		c.R[ins.Dst.Reg] = uint64(int64(c.F[ins.Src.Reg]))

	case isa.FMOVFI:
		c.R[ins.Dst.Reg] = math.Float64bits(c.F[ins.Src.Reg])

	case isa.FMOVIF:
		c.F[ins.Dst.Reg] = math.Float64frombits(c.R[ins.Src.Reg])

	case isa.VLOAD:
		addr := m.effAddr(ins.Src.Mem)
		for i := 0; i < isa.VecLanes; i++ {
			v, merr := m.Mem.ReadF64(addr + uint64(8*i))
			if merr != nil {
				return m.fault(merr)
			}
			c.V[ins.Dst.Reg][i] = v
		}
		m.chargeMem(addr, 8*isa.VecLanes, false)

	case isa.VSTORE:
		addr := m.effAddr(ins.Dst.Mem)
		for i := 0; i < isa.VecLanes; i++ {
			if merr := m.Mem.WriteF64(addr+uint64(8*i), c.V[ins.Src.Reg][i]); merr != nil {
				return m.fault(merr)
			}
			m.noteStore(addr+uint64(8*i), 8, math.Float64bits(c.V[ins.Src.Reg][i]))
		}
		m.chargeMem(addr, 8*isa.VecLanes, true)

	case isa.VADD, isa.VSUB, isa.VMUL:
		for i := 0; i < isa.VecLanes; i++ {
			a, b := c.V[ins.Dst.Reg][i], c.V[ins.Src.Reg][i]
			switch ins.Op {
			case isa.VADD:
				c.V[ins.Dst.Reg][i] = a + b
			case isa.VSUB:
				c.V[ins.Dst.Reg][i] = a - b
			case isa.VMUL:
				c.V[ins.Dst.Reg][i] = a * b
			}
		}

	case isa.VBCAST:
		for i := 0; i < isa.VecLanes; i++ {
			c.V[ins.Dst.Reg][i] = c.F[ins.Src.Reg]
		}

	case isa.VHADD:
		s := 0.0
		for i := 0; i < isa.VecLanes; i++ {
			s += c.V[ins.Src.Reg][i]
		}
		c.F[ins.Dst.Reg] = s

	default:
		return m.fault(fmt.Errorf("unimplemented opcode %s (%v)", ins.Op, *ins))
	}

	c.PC = next
	return nil
}

// Run executes until HALT, BRK, a fault, or maxSteps instructions
// (maxSteps <= 0 means no limit). HALT returns nil.
func (m *Machine) Run(maxSteps int64) error {
	for n := int64(0); maxSteps <= 0 || n < maxSteps; n++ {
		switch err := m.Step(); {
		case err == nil:
		case errors.Is(err, ErrHalted):
			return nil
		default:
			return err
		}
	}
	return ErrStepLimit
}
