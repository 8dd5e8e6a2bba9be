package vm

import (
	"math"
	"testing"

	"repro/internal/isa"
)

// TestDecodeConstants checks the encoding facts the decode table relies
// on: no instruction is longer than maxInstrLen (range invalidation looks
// back that far) and poisonByte is not an opcode (freed code must fail to
// decode).
func TestDecodeConstants(t *testing.T) {
	if isa.Opcode(poisonByte).Valid() {
		t.Fatalf("poison byte 0x%02x is a valid opcode", poisonByte)
	}
	widest := isa.BaseIndex(isa.R1, isa.R2, 8, math.MinInt32)
	longest := 0
	for op := isa.Opcode(0); int(op) < isa.NumOpcodes; op++ {
		if !op.Valid() {
			continue
		}
		ins := isa.Instr{Op: op}
		switch isa.Info(op).Format {
		case isa.FRI:
			ins.Src = isa.ImmOp(math.MinInt64)
		case isa.FRM:
			ins.Src = isa.MemOp(widest)
		case isa.FMR:
			ins.Dst = isa.MemOp(widest)
		}
		n, err := isa.EncodedLen(ins)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		longest = max(longest, n)
	}
	if longest != maxInstrLen {
		t.Errorf("longest encoding is %d bytes, maxInstrLen is %d", longest, maxInstrLen)
	}
}
