// Package ir defines a compact machine-level intermediate representation
// (MIR) used throughout the PresCount reproduction: virtual and physical
// registers in two register classes, instructions with explicit def/use
// operand lists, basic blocks with explicit successors, and functions with
// loop trip-count metadata.
//
// The IR is deliberately post-instruction-selection and non-SSA: a virtual
// register may be redefined, exactly as LLVM Machine IR after two-address
// lowering. This is the representation on which register coalescing,
// pre-allocation scheduling, bank assignment and register allocation operate
// in the pipeline of the paper's Figure 4.
package ir

import (
	"fmt"
	"strconv"
)

// Reg names a register operand. The zero value NoReg means "no register".
//
// Physical registers occupy the low id space: GPRs x0..x31 are ids 1..32 and
// FP registers f0..f(n-1) are ids 33..33+n-1. Virtual registers have the top
// bit set and carry a dense index. Helpers below convert between the spaces.
type Reg uint32

// NoReg is the absent register (zero value).
const NoReg Reg = 0

const (
	virtFlag Reg = 1 << 31

	// NumGPR is the number of physical general-purpose registers (x0..x31,
	// riscv-64 style). GPRs are never banked; they hold addresses, loop
	// counters and comparison results.
	NumGPR = 32

	gprBase Reg = 1
	fprBase Reg = gprBase + NumGPR
)

// VReg returns the virtual register with dense index i (i >= 0).
func VReg(i int) Reg {
	if i < 0 {
		panic(fmt.Sprintf("ir: negative virtual register index %d", i))
	}
	return virtFlag | Reg(i)
}

// XReg returns physical GPR i (x0..x31).
func XReg(i int) Reg {
	if i < 0 || i >= NumGPR {
		panic(fmt.Sprintf("ir: GPR index %d out of range", i))
	}
	return gprBase + Reg(i)
}

// FReg returns physical FP register i. The FP file size is configurable per
// platform (32 or 1024 in the paper's settings); the encoding itself allows
// any index below 2^30.
func FReg(i int) Reg {
	if i < 0 || i >= int(virtFlag-fprBase) {
		panic(fmt.Sprintf("ir: FP register index %d out of range", i))
	}
	return fprBase + Reg(i)
}

// IsVirt reports whether r is a virtual register.
func (r Reg) IsVirt() bool { return r&virtFlag != 0 }

// IsPhys reports whether r is a physical register.
func (r Reg) IsPhys() bool { return r != NoReg && r&virtFlag == 0 }

// VirtIndex returns the dense index of a virtual register. It is small
// enough to inline: every dense per-register table indexes through it.
func (r Reg) VirtIndex() int {
	if !r.IsVirt() {
		panicNotVirt(r)
	}
	return int(r &^ virtFlag)
}

//go:noinline
func panicNotVirt(r Reg) {
	panic(fmt.Sprintf("ir: VirtIndex of non-virtual register %v", r))
}

// IsGPR reports whether r is a physical GPR.
func (r Reg) IsGPR() bool { return r >= gprBase && r < fprBase }

// IsFPR reports whether r is a physical FP register.
func (r Reg) IsFPR() bool { return r.IsPhys() && r >= fprBase }

// GPRIndex returns i for the physical GPR xi.
func (r Reg) GPRIndex() int {
	if !r.IsGPR() {
		panic(fmt.Sprintf("ir: GPRIndex of %v", r))
	}
	return int(r - gprBase)
}

// FPRIndex returns i for the physical FP register fi.
func (r Reg) FPRIndex() int {
	if !r.IsFPR() {
		panic(fmt.Sprintf("ir: FPRIndex of %v", r))
	}
	return int(r - fprBase)
}

// String renders the register in the textual MIR syntax: %N for virtual
// registers, xN / fN for physical ones.
func (r Reg) String() string {
	var buf [16]byte
	return string(r.appendText(buf[:0]))
}

// appendText appends the String form of r to buf.
func (r Reg) appendText(buf []byte) []byte {
	switch {
	case r == NoReg:
		return append(buf, "noreg"...)
	case r.IsVirt():
		return strconv.AppendInt(append(buf, '%'), int64(r.VirtIndex()), 10)
	case r.IsGPR():
		return strconv.AppendInt(append(buf, 'x'), int64(r.GPRIndex()), 10)
	default:
		return strconv.AppendInt(append(buf, 'f'), int64(r.FPRIndex()), 10)
	}
}

// CallerSavedFPR reports whether FP register index i of an n-register file
// is caller-saved (clobbered by calls). The callee-saved set is the top
// min(12, 3n/8) registers: 12 of 32 matches the riscv-64 fs registers, and
// the cap models the usual ABI treatment of extended register files, whose
// additional registers are all temporaries — which is why spilling persists
// even on a 1024-register file (the paper's Sp1k column).
func CallerSavedFPR(i, n int) bool {
	callee := 3 * n / 8
	if callee > 12 {
		callee = 12
	}
	return i < n-callee
}

// CallerSavedGPR reports whether GPR index i is caller-saved. The first 20
// registers are treated as caller-saved (a/t registers), the rest as
// callee-saved (s registers).
func CallerSavedGPR(i int) bool { return i < 20 }

// Class is a register class. The FP class is the multi-banked file the paper
// studies; the GPR class is the scalar file used for addressing and control.
type Class uint8

const (
	// ClassNone is the zero Class; it is invalid in operands.
	ClassNone Class = iota
	// ClassGPR is the scalar integer class (unbanked).
	ClassGPR
	// ClassFP is the floating-point/vector class (multi-banked).
	ClassFP
)

// String returns the textual class name used by the MIR parser/printer.
func (c Class) String() string {
	switch c {
	case ClassGPR:
		return "gpr"
	case ClassFP:
		return "fp"
	default:
		return "none"
	}
}
