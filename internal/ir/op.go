package ir

// Op is an MIR opcode. The set is deliberately small: integer ops for
// addressing and loop control, floating-point ops that constitute the
// conflict-relevant workload, memory access, spill pseudo-ops and control
// flow.
type Op uint8

const (
	// OpNop does nothing; used as a scheduling placeholder.
	OpNop Op = iota

	// --- integer (GPR class) ---

	// OpIConst defines a GPR with the immediate Imm.
	OpIConst
	// OpIMov copies Uses[0] into Defs[0] (GPR).
	OpIMov
	// OpIAdd defines Defs[0] = Uses[0] + Uses[1].
	OpIAdd
	// OpIAddI defines Defs[0] = Uses[0] + Imm.
	OpIAddI
	// OpIMul defines Defs[0] = Uses[0] * Uses[1].
	OpIMul
	// OpIMulI defines Defs[0] = Uses[0] * Imm.
	OpIMulI
	// OpICmpLt defines Defs[0] = 1 if Uses[0] < Uses[1] else 0.
	OpICmpLt
	// OpICmpLtI defines Defs[0] = 1 if Uses[0] < Imm else 0.
	OpICmpLtI

	// --- floating point (FP class) ---

	// OpFConst defines an FP register with the immediate FImm.
	OpFConst
	// OpFMov copies Uses[0] into Defs[0] (FP). Coalescing targets this op.
	OpFMov
	// OpFNeg defines Defs[0] = -Uses[0].
	OpFNeg
	// OpFAdd defines Defs[0] = Uses[0] + Uses[1].
	OpFAdd
	// OpFSub defines Defs[0] = Uses[0] - Uses[1].
	OpFSub
	// OpFMul defines Defs[0] = Uses[0] * Uses[1].
	OpFMul
	// OpFDiv defines Defs[0] = Uses[0] / Uses[1].
	OpFDiv
	// OpFMin defines Defs[0] = min(Uses[0], Uses[1]).
	OpFMin
	// OpFMax defines Defs[0] = max(Uses[0], Uses[1]).
	OpFMax
	// OpFMA defines Defs[0] = Uses[0]*Uses[1] + Uses[2] (fused multiply-add;
	// three FP reads make it the most conflict-prone op).
	OpFMA

	// --- memory ---

	// OpFLoad defines Defs[0] (FP) = mem[Uses[0] (GPR) + Imm].
	OpFLoad
	// OpFStore stores Uses[0] (FP) to mem[Uses[1] (GPR) + Imm].
	OpFStore

	// --- spill pseudo-ops (inserted by the allocator; they access a
	// dedicated spill area addressed by Imm and never cause bank reads of
	// two FP operands, so they are conflict-irrelevant) ---

	// OpFSpill stores Uses[0] (FP) to spill slot Imm.
	OpFSpill
	// OpFReload defines Defs[0] (FP) from spill slot Imm.
	OpFReload
	// OpISpill stores Uses[0] (GPR) to spill slot Imm.
	OpISpill
	// OpIReload defines Defs[0] (GPR) from spill slot Imm.
	OpIReload

	// OpCall invokes an external routine: it reads and writes no program
	// memory in this model, but clobbers every caller-saved register
	// (CallerSavedFPR/CallerSavedGPR). Values live across a call must sit
	// in callee-saved registers or spill — the pressure source behind
	// spilling even on huge register files.
	OpCall

	// --- control flow (always the last instruction of a block) ---

	// OpBr jumps to Block.Succs[0].
	OpBr
	// OpCondBr jumps to Block.Succs[0] if Uses[0] != 0, else Block.Succs[1].
	OpCondBr
	// OpRet returns from the function.
	OpRet

	opCount
)

// Valid reports whether o is a defined opcode. Decoders of externally
// sourced IR (the on-disk Result codec) use it to reject corrupted input
// before an out-of-range opcode can reach the name and signature tables.
func (o Op) Valid() bool { return o < opCount }

var opNames = [opCount]string{
	OpNop:     "nop",
	OpIConst:  "iconst",
	OpIMov:    "imov",
	OpIAdd:    "iadd",
	OpIAddI:   "iaddi",
	OpIMul:    "imul",
	OpIMulI:   "imuli",
	OpICmpLt:  "icmplt",
	OpICmpLtI: "icmplti",
	OpFConst:  "fconst",
	OpFMov:    "fmov",
	OpFNeg:    "fneg",
	OpFAdd:    "fadd",
	OpFSub:    "fsub",
	OpFMul:    "fmul",
	OpFDiv:    "fdiv",
	OpFMin:    "fmin",
	OpFMax:    "fmax",
	OpFMA:     "fma",
	OpFLoad:   "fload",
	OpFStore:  "fstore",
	OpFSpill:  "fspill",
	OpFReload: "freload",
	OpISpill:  "ispill",
	OpIReload: "ireload",
	OpCall:    "call",
	OpBr:      "br",
	OpCondBr:  "condbr",
	OpRet:     "ret",
}

// String returns the mnemonic used in textual MIR.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return "op?"
}

// opByName maps each mnemonic of opNames to its opcode.
var opByName = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for op, n := range opNames {
		m[n] = Op(op)
	}
	return m
}()

// OpByName resolves a mnemonic to its opcode. The second result is false for
// unknown mnemonics.
func OpByName(name string) (Op, bool) {
	op, ok := opByName[name]
	return op, ok
}

// opSig describes the operand signature of an opcode.
type opSig struct {
	defs, uses  int
	defClass    Class
	useClasses  []Class
	hasImm      bool
	hasFImm     bool
	terminator  bool
	numSuccs    int
	commutative bool
}

var opSigs = [opCount]opSig{
	OpNop:     {},
	OpIConst:  {defs: 1, defClass: ClassGPR, hasImm: true},
	OpIMov:    {defs: 1, uses: 1, defClass: ClassGPR, useClasses: []Class{ClassGPR}},
	OpIAdd:    {defs: 1, uses: 2, defClass: ClassGPR, useClasses: []Class{ClassGPR, ClassGPR}, commutative: true},
	OpIAddI:   {defs: 1, uses: 1, defClass: ClassGPR, useClasses: []Class{ClassGPR}, hasImm: true},
	OpIMul:    {defs: 1, uses: 2, defClass: ClassGPR, useClasses: []Class{ClassGPR, ClassGPR}, commutative: true},
	OpIMulI:   {defs: 1, uses: 1, defClass: ClassGPR, useClasses: []Class{ClassGPR}, hasImm: true},
	OpICmpLt:  {defs: 1, uses: 2, defClass: ClassGPR, useClasses: []Class{ClassGPR, ClassGPR}},
	OpICmpLtI: {defs: 1, uses: 1, defClass: ClassGPR, useClasses: []Class{ClassGPR}, hasImm: true},
	OpFConst:  {defs: 1, defClass: ClassFP, hasFImm: true},
	OpFMov:    {defs: 1, uses: 1, defClass: ClassFP, useClasses: []Class{ClassFP}},
	OpFNeg:    {defs: 1, uses: 1, defClass: ClassFP, useClasses: []Class{ClassFP}},
	OpFAdd:    {defs: 1, uses: 2, defClass: ClassFP, useClasses: []Class{ClassFP, ClassFP}, commutative: true},
	OpFSub:    {defs: 1, uses: 2, defClass: ClassFP, useClasses: []Class{ClassFP, ClassFP}},
	OpFMul:    {defs: 1, uses: 2, defClass: ClassFP, useClasses: []Class{ClassFP, ClassFP}, commutative: true},
	OpFDiv:    {defs: 1, uses: 2, defClass: ClassFP, useClasses: []Class{ClassFP, ClassFP}},
	OpFMin:    {defs: 1, uses: 2, defClass: ClassFP, useClasses: []Class{ClassFP, ClassFP}, commutative: true},
	OpFMax:    {defs: 1, uses: 2, defClass: ClassFP, useClasses: []Class{ClassFP, ClassFP}, commutative: true},
	OpFMA:     {defs: 1, uses: 3, defClass: ClassFP, useClasses: []Class{ClassFP, ClassFP, ClassFP}},
	OpFLoad:   {defs: 1, uses: 1, defClass: ClassFP, useClasses: []Class{ClassGPR}, hasImm: true},
	OpFStore:  {uses: 2, useClasses: []Class{ClassFP, ClassGPR}, hasImm: true},
	OpFSpill:  {uses: 1, useClasses: []Class{ClassFP}, hasImm: true},
	OpFReload: {defs: 1, defClass: ClassFP, hasImm: true},
	OpISpill:  {uses: 1, useClasses: []Class{ClassGPR}, hasImm: true},
	OpIReload: {defs: 1, defClass: ClassGPR, hasImm: true},
	OpCall:    {},
	OpBr:      {terminator: true, numSuccs: 1},
	OpCondBr:  {uses: 1, useClasses: []Class{ClassGPR}, terminator: true, numSuccs: 2},
	OpRet:     {terminator: true},
}

// NumDefs returns the number of register definitions of the opcode.
func (o Op) NumDefs() int { return opSigs[o].defs }

// NumUses returns the number of register uses of the opcode.
func (o Op) NumUses() int { return opSigs[o].uses }

// DefClass returns the register class of the opcode's definition.
func (o Op) DefClass() Class { return opSigs[o].defClass }

// UseClass returns the register class of use operand i.
func (o Op) UseClass(i int) Class { return opSigs[o].useClasses[i] }

// HasImm reports whether the opcode carries an integer immediate.
func (o Op) HasImm() bool { return opSigs[o].hasImm }

// HasFImm reports whether the opcode carries a floating-point immediate.
func (o Op) HasFImm() bool { return opSigs[o].hasFImm }

// IsTerminator reports whether the opcode terminates a basic block.
func (o Op) IsTerminator() bool { return opSigs[o].terminator }

// NumSuccs returns the number of successor blocks the terminator requires.
func (o Op) NumSuccs() int { return opSigs[o].numSuccs }

// IsCommutative reports whether the opcode's two uses may be swapped.
func (o Op) IsCommutative() bool { return opSigs[o].commutative }

// IsCopy reports whether the opcode is a register-to-register copy
// (coalescing candidate).
func (o Op) IsCopy() bool { return o == OpFMov || o == OpIMov }

// FPUseCount returns the number of FP-class register reads of the opcode.
// An instruction with two or more FP reads is conflict-relevant: if those
// reads land in the same bank of a single-read-port register file, the
// hardware must serialize them (paper §II-A).
func (o Op) FPUseCount() int {
	n := 0
	for _, c := range opSigs[o].useClasses {
		if c == ClassFP {
			n++
		}
	}
	return n
}

// IsConflictRelevant reports whether the opcode reads two or more FP
// registers and therefore can trigger a bank conflict.
func (o Op) IsConflictRelevant() bool { return o.FPUseCount() >= 2 }

// IsVectorALU reports whether the opcode is a DSA vector ALU operation whose
// FP operands are subject to the subgroup alignment constraint (paper
// §III-C). Register copies are excluded: the hardware moves data between
// subgroups via copies, which is exactly how SDG-based splitting breaks
// oversized alignment groups (Figures 8/9).
func (o Op) IsVectorALU() bool {
	switch o {
	case OpFNeg, OpFAdd, OpFSub, OpFMul, OpFDiv, OpFMin, OpFMax, OpFMA:
		return true
	}
	return false
}
