// Package sim is the execution substrate standing in for the paper's QEMU
// setup: an interpreter for MIR (virtual- or physical-register form) that
//
//   - executes the program faithfully, so allocated code can be checked for
//     semantic equivalence against its pre-allocation form;
//   - counts dynamic bank-conflict instances — executions of instructions
//     whose FP register reads collide within a single-read-port bank — the
//     metric of the paper's Platform-RV#2 experiments (Fig. 11, Tables
//     IV/V);
//   - models cycles: one cycle per instruction (or per VLIW bundle on the
//     DSA) plus N-1 serialization cycles for N conflicting reads, the cost
//     model stated in the paper's introduction and used for Table VII.
//
// The DSA's VLIW mode bundles adjacent independent instructions but,
// following the paper's §IV-B3 discussion, refuses to bundle instructions
// that access the same register bank.
package sim

import (
	"fmt"
	"io"
	"math"

	"prescount/internal/bankfile"
	"prescount/internal/conflict"
	"prescount/internal/ir"
)

// DefaultMemSize is the default data memory size in elements.
const DefaultMemSize = 1 << 20

// DefaultMaxSteps bounds execution length.
const DefaultMaxSteps = 50_000_000

// Options configures a simulation.
type Options struct {
	// File is the register-file model used for conflict counting and cycle
	// penalties (only meaningful for allocated, physical-register code).
	File bankfile.Config
	// MemSize is the data memory size in elements (DefaultMemSize if 0).
	MemSize int
	// MaxSteps bounds the executed instruction count (DefaultMaxSteps
	// if 0).
	MaxSteps int
	// VLIW enables dual-issue bundling with the same-bank restriction.
	VLIW bool
	// VLIWWidth is the bundle width (2 if 0).
	VLIWWidth int
	// KeepMem retains the final memory image in the result.
	KeepMem bool
	// Trace, when non-nil, receives one line per executed instruction
	// ("step block instr [!conflict=N]"), the role QEMU's instruction
	// trace plays in the paper's dynamic-conflict collection.
	Trace io.Writer
}

// Result reports a completed simulation.
type Result struct {
	// Steps is the number of executed instructions.
	Steps int64
	// Cycles is the modeled cycle count.
	Cycles int64
	// DynamicConflicts is the summed conflict penalty over executed
	// instructions (the paper's dynamic bank-conflict instances).
	DynamicConflicts int64
	// ConflictInstances counts executed instructions with nonzero penalty.
	ConflictInstances int64
	// MemChecksum digests the final data memory for equivalence checks.
	MemChecksum uint64
	// Mem is the final memory image when Options.KeepMem is set.
	Mem []float64
}

// Run executes f and returns the result. Execution starts at the entry
// block with zeroed registers and memory and ends at ret.
func Run(f *ir.Func, opts Options) (*Result, error) {
	if opts.MemSize == 0 {
		opts.MemSize = DefaultMemSize
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = DefaultMaxSteps
	}
	if opts.VLIWWidth == 0 {
		opts.VLIWWidth = 2
	}
	opts.File = opts.File.Normalize()

	m := &machine{
		f:     f,
		opts:  opts,
		fregs: newRegFile[float64](f, opts.File.NumRegs),
		xregs: newRegFile[int64](f, 0),
		mem:   make([]float64, opts.MemSize),
		fsp:   map[int64]float64{},
		xsp:   map[int64]int64{},
	}
	// Precompute per-block static costs.
	m.blockCost = make([]blockCost, len(f.Blocks))
	for _, b := range f.Blocks {
		m.blockCost[b.ID] = m.staticBlockCost(b)
	}
	if err := m.run(); err != nil {
		return nil, err
	}
	res := &Result{
		Steps:             m.steps,
		Cycles:            m.cycles,
		DynamicConflicts:  m.dynConf,
		ConflictInstances: m.confInst,
		MemChecksum:       checksum(m.mem),
	}
	if opts.KeepMem {
		res.Mem = m.mem
	}
	return res, nil
}

type blockCost struct {
	// issueCycles is the cycle count of one pass through the block body
	// before conflict penalties: instruction count, or bundle count under
	// VLIW.
	issueCycles int64
	// penalty is the summed static conflict penalty of the block.
	penalty int64
	// confInstrs is the number of instructions with nonzero penalty.
	confInstrs int64
}

type machine struct {
	f    *ir.Func
	opts Options

	fregs regFile[float64]
	xregs regFile[int64]
	mem   []float64
	fsp   map[int64]float64
	xsp   map[int64]int64

	steps    int64
	cycles   int64
	dynConf  int64
	confInst int64

	blockCost []blockCost
}

// regFile holds one class's register values without a map: physical
// registers by register id (the low id space, where NoReg, x0..x31 and the
// FP registers each have their own id) and virtual registers by
// VirtIndex, so a physical register and a virtual one never share a slot.
// Registers never written read as zero; writes past the end grow the table.
type regFile[T int64 | float64] struct {
	phys, virt []T
}

// newRegFile sizes a register file for f's virtual registers and a
// numFP-register FP file.
func newRegFile[T int64 | float64](f *ir.Func, numFP int) regFile[T] {
	return regFile[T]{
		phys: make([]T, int(ir.FReg(0))+numFP),
		virt: make([]T, len(f.VRegs)),
	}
}

func (rf *regFile[T]) get(r ir.Reg) T {
	tab, i := rf.phys, int(r)
	if r.IsVirt() {
		tab, i = rf.virt, r.VirtIndex()
	}
	if i < len(tab) {
		return tab[i]
	}
	return 0
}

func (rf *regFile[T]) set(r ir.Reg, v T) {
	tab, i := &rf.phys, int(r)
	if r.IsVirt() {
		tab, i = &rf.virt, r.VirtIndex()
	}
	if i >= len(*tab) {
		*tab = append(*tab, make([]T, i+1-len(*tab))...)
	}
	(*tab)[i] = v
}

func (m *machine) run() error {
	b := m.f.Entry()
	for {
		bc := m.blockCost[b.ID]
		m.cycles += bc.issueCycles + bc.penalty
		m.dynConf += bc.penalty
		m.confInst += bc.confInstrs

		next, done, err := m.execBlock(b)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		b = next
	}
}

func (m *machine) execBlock(b *ir.Block) (next *ir.Block, done bool, err error) {
	for _, in := range b.Instrs {
		m.steps++
		if m.steps > int64(m.opts.MaxSteps) {
			return nil, false, fmt.Errorf("sim: %s: exceeded %d steps", m.f.Name, m.opts.MaxSteps)
		}
		if m.opts.Trace != nil {
			if terr := m.traceInstr(b, in); terr != nil {
				return nil, false, terr
			}
		}
		switch in.Op {
		case ir.OpNop:
		case ir.OpIConst:
			m.xregs.set(in.Defs[0], in.Imm)
		case ir.OpIMov:
			m.xregs.set(in.Defs[0], m.xregs.get(in.Uses[0]))
		case ir.OpIAdd:
			m.xregs.set(in.Defs[0], m.xregs.get(in.Uses[0])+m.xregs.get(in.Uses[1]))
		case ir.OpIAddI:
			m.xregs.set(in.Defs[0], m.xregs.get(in.Uses[0])+in.Imm)
		case ir.OpIMul:
			m.xregs.set(in.Defs[0], m.xregs.get(in.Uses[0])*m.xregs.get(in.Uses[1]))
		case ir.OpIMulI:
			m.xregs.set(in.Defs[0], m.xregs.get(in.Uses[0])*in.Imm)
		case ir.OpICmpLt:
			m.xregs.set(in.Defs[0], b2i(m.xregs.get(in.Uses[0]) < m.xregs.get(in.Uses[1])))
		case ir.OpICmpLtI:
			m.xregs.set(in.Defs[0], b2i(m.xregs.get(in.Uses[0]) < in.Imm))
		case ir.OpFConst:
			m.fregs.set(in.Defs[0], in.FImm)
		case ir.OpFMov:
			m.fregs.set(in.Defs[0], m.fregs.get(in.Uses[0]))
		case ir.OpFNeg:
			m.fregs.set(in.Defs[0], -m.fregs.get(in.Uses[0]))
		case ir.OpFAdd:
			m.fregs.set(in.Defs[0], m.fregs.get(in.Uses[0])+m.fregs.get(in.Uses[1]))
		case ir.OpFSub:
			m.fregs.set(in.Defs[0], m.fregs.get(in.Uses[0])-m.fregs.get(in.Uses[1]))
		case ir.OpFMul:
			m.fregs.set(in.Defs[0], m.fregs.get(in.Uses[0])*m.fregs.get(in.Uses[1]))
		case ir.OpFDiv:
			m.fregs.set(in.Defs[0], m.fregs.get(in.Uses[0])/m.fregs.get(in.Uses[1]))
		case ir.OpFMin:
			m.fregs.set(in.Defs[0], math.Min(m.fregs.get(in.Uses[0]), m.fregs.get(in.Uses[1])))
		case ir.OpFMax:
			m.fregs.set(in.Defs[0], math.Max(m.fregs.get(in.Uses[0]), m.fregs.get(in.Uses[1])))
		case ir.OpFMA:
			m.fregs.set(in.Defs[0], m.fregs.get(in.Uses[0])*m.fregs.get(in.Uses[1])+m.fregs.get(in.Uses[2]))
		case ir.OpFLoad:
			addr, aerr := m.addr(m.xregs.get(in.Uses[0]), in.Imm)
			if aerr != nil {
				return nil, false, aerr
			}
			m.fregs.set(in.Defs[0], m.mem[addr])
		case ir.OpFStore:
			addr, aerr := m.addr(m.xregs.get(in.Uses[1]), in.Imm)
			if aerr != nil {
				return nil, false, aerr
			}
			m.mem[addr] = m.fregs.get(in.Uses[0])
		case ir.OpFSpill:
			m.fsp[in.Imm] = m.fregs.get(in.Uses[0])
		case ir.OpFReload:
			m.fregs.set(in.Defs[0], m.fsp[in.Imm])
		case ir.OpISpill:
			m.xsp[in.Imm] = m.xregs.get(in.Uses[0])
		case ir.OpIReload:
			m.xregs.set(in.Defs[0], m.xsp[in.Imm])
		case ir.OpCall:
			m.clobberCallerSaved()
		case ir.OpBr:
			return b.Succs[0], false, nil
		case ir.OpCondBr:
			if m.xregs.get(in.Uses[0]) != 0 {
				return b.Succs[0], false, nil
			}
			return b.Succs[1], false, nil
		case ir.OpRet:
			return nil, true, nil
		default:
			return nil, false, fmt.Errorf("sim: %s: unhandled op %v", m.f.Name, in.Op)
		}
	}
	return nil, false, fmt.Errorf("sim: %s: block %s fell through without terminator", m.f.Name, b.Name)
}

// traceInstr writes one trace line for an instruction about to execute.
func (m *machine) traceInstr(b *ir.Block, in *ir.Instr) error {
	pen := conflict.Penalty(in, m.opts.File)
	var err error
	if pen > 0 {
		_, err = fmt.Fprintf(m.opts.Trace, "%d %s %s !conflict=%d\n", m.steps, b.Name, in.Op, pen)
	} else {
		_, err = fmt.Fprintf(m.opts.Trace, "%d %s %s\n", m.steps, b.Name, in.Op)
	}
	if err != nil {
		return fmt.Errorf("sim: %s: trace write: %w", m.f.Name, err)
	}
	return nil
}

// clobberCallerSaved overwrites every caller-saved physical register with a
// canary value, modeling an external call. Virtual registers are untouched
// (pre-allocation code has no calling convention yet), so a mis-allocated
// live-across-call value shows up as a semantic divergence in the
// equivalence tests.
func (m *machine) clobberCallerSaved() {
	n := m.opts.File.NumRegs
	if n == 0 {
		return
	}
	const canary = -1.2345e300
	for i := 0; i < n; i++ {
		if ir.CallerSavedFPR(i, n) {
			m.fregs.set(ir.FReg(i), canary)
		}
	}
	for i := 0; i < ir.NumGPR; i++ {
		if ir.CallerSavedGPR(i) {
			m.xregs.set(ir.XReg(i), -123456789)
		}
	}
}

func (m *machine) addr(base, off int64) (int64, error) {
	a := base + off
	if a < 0 || a >= int64(len(m.mem)) {
		return 0, fmt.Errorf("sim: %s: memory access out of range: %d", m.f.Name, a)
	}
	return a, nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// staticBlockCost computes the per-execution cycle cost of a block.
func (m *machine) staticBlockCost(b *ir.Block) blockCost {
	var bc blockCost
	for _, in := range b.Instrs {
		pen := int64(conflict.Penalty(in, m.opts.File))
		bc.penalty += pen
		if pen > 0 {
			bc.confInstrs++
		}
	}
	if !m.opts.VLIW {
		bc.issueCycles = int64(len(b.Instrs))
		return bc
	}
	bc.issueCycles = int64(len(bundle(b.Instrs, m.opts.File, m.opts.VLIWWidth)))
	return bc
}

// bundle greedily packs adjacent independent instructions into VLIW bundles
// of at most width instructions, refusing pairs that read or write the same
// register bank (the DSA's bundling restriction).
func bundle(instrs []*ir.Instr, file bankfile.Config, width int) [][]*ir.Instr {
	var out [][]*ir.Instr
	i := 0
	for i < len(instrs) {
		cur := []*ir.Instr{instrs[i]}
		j := i + 1
		for j < len(instrs) && len(cur) < width {
			if !canBundle(cur, instrs[j], file) {
				break
			}
			cur = append(cur, instrs[j])
			j++
		}
		out = append(out, cur)
		i = j
	}
	return out
}

// canBundle reports whether in can issue in the same cycle as the
// instructions already in the bundle.
func canBundle(bundle []*ir.Instr, in *ir.Instr, file bankfile.Config) bool {
	if in.Op.IsTerminator() || in.Op == ir.OpCall {
		return false
	}
	for _, prev := range bundle {
		if prev.Op == ir.OpCall {
			return false
		}
	}
	inBanks := fpBanks(in, file)
	for _, prev := range bundle {
		if prev.Op.IsTerminator() {
			return false
		}
		// Data dependence: in must not read or write prev's defs, and must
		// not write prev's uses.
		for _, d := range prev.Defs {
			for _, u := range in.Uses {
				if u == d {
					return false
				}
			}
			for _, dd := range in.Defs {
				if dd == d {
					return false
				}
			}
		}
		for _, u := range prev.Uses {
			for _, dd := range in.Defs {
				if dd == u {
					return false
				}
			}
		}
		// Memory ops never pair (single load/store unit).
		if isMem(prev.Op) && isMem(in.Op) {
			return false
		}
		// Same-bank restriction.
		for b := range fpBanks(prev, file) {
			if inBanks[b] {
				return false
			}
		}
	}
	return true
}

// fpBanks returns the set of banks touched by the instruction's FP operands
// (reads and writes).
func fpBanks(in *ir.Instr, file bankfile.Config) map[int]bool {
	out := map[int]bool{}
	for i, u := range in.Uses {
		if in.Op.NumUses() > i && in.Op.UseClass(i) == ir.ClassFP && u.IsFPR() {
			out[file.Bank(u.FPRIndex())] = true
		}
	}
	for _, d := range in.Defs {
		if d.IsFPR() {
			out[file.Bank(d.FPRIndex())] = true
		}
	}
	return out
}

func isMem(op ir.Op) bool {
	switch op {
	case ir.OpFLoad, ir.OpFStore, ir.OpFSpill, ir.OpFReload, ir.OpISpill, ir.OpIReload:
		return true
	}
	return false
}

// checksum digests a memory image: FNV-1a over the little-endian bytes of
// every element's bit pattern. Hashing a zero byte is a multiply by the
// prime, so a zero element — most of a finished kernel's memory — is one
// multiply by prime⁸ instead of eight xor-multiply steps.
func checksum(mem []float64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
		prime8 = prime * prime * prime * prime * prime * prime * prime * prime % (1 << 64)
	)
	h := uint64(offset)
	for _, v := range mem {
		bits := math.Float64bits(v)
		if bits == 0 {
			h *= prime8
			continue
		}
		for s := 0; s < 64; s += 8 {
			h ^= (bits >> s) & 0xff
			h *= prime
		}
	}
	return h
}
