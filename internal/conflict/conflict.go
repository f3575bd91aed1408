// Package conflict analyzes allocated code for register bank conflicts: it
// computes the static conflict counts reported throughout the paper's
// evaluation, the loop-weighted conflict cost, subgroup alignment
// violations on DSA files, and the program classification taxonomy of
// Figure 1 (conflict-irrelevant / conflict-relevant / conflict-free /
// conflict).
package conflict

import (
	"prescount/internal/bankfile"
	"prescount/internal/cfg"
	"prescount/internal/ir"
)

// Report holds the static conflict analysis of one allocated function.
type Report struct {
	// ConflictRelevant is the number of instructions reading >= 2 FP
	// registers (a pre-allocation property; "Reles" in Table I).
	ConflictRelevant int
	// StaticConflicts is the summed per-instruction conflict penalty:
	// for every bank, max(0, reads_in_bank - readPorts). An instruction
	// whose N reads hit one single-ported bank contributes N-1
	// (the paper's N-1 cycle delay model).
	StaticConflicts int
	// ConflictInstrs is the number of instructions with a non-zero penalty.
	ConflictInstrs int
	// WeightedConflicts is StaticConflicts weighted by Cost_I (Equation 1):
	// the loop-aware cost the assigner minimizes.
	WeightedConflicts float64
	// SubgroupViolations counts vector ALU instructions whose FP operands
	// span more than one subgroup (DSA "subgroup alignment" constraint).
	SubgroupViolations int
	// Copies counts register copy instructions (fmov/imov) in the final
	// code ("Copies" in Table VII).
	Copies int
	// SpillStores and SpillReloads count spill code instructions.
	SpillStores, SpillReloads int
	// Instrs is the total instruction count.
	Instrs int
}

// Add accumulates src into r field by field: the module totals of a
// multi-function compile.
func (r *Report) Add(src *Report) {
	r.ConflictRelevant += src.ConflictRelevant
	r.StaticConflicts += src.StaticConflicts
	r.ConflictInstrs += src.ConflictInstrs
	r.WeightedConflicts += src.WeightedConflicts
	r.SubgroupViolations += src.SubgroupViolations
	r.Copies += src.Copies
	r.SpillStores += src.SpillStores
	r.SpillReloads += src.SpillReloads
	r.Instrs += src.Instrs
}

// Analyze scans an allocated (physical-register) function under the given
// register file.
func Analyze(f *ir.Func, file bankfile.Config) *Report {
	return AnalyzeWith(f, file, cfg.Compute(f))
}

// AnalyzeWith is Analyze with a caller-provided CFG — typically the
// pipeline's analysis cache — avoiding a recompute when control flow is
// known to be unchanged. cf must be computed over f (or retained across
// rewrites that preserve f's block structure).
func AnalyzeWith(f *ir.Func, file bankfile.Config, cf *cfg.Info) *Report {
	file = file.Normalize()
	r := &Report{}
	for _, b := range f.Blocks {
		cost := cf.InstrCost(b)
		for _, in := range b.Instrs {
			r.Instrs++
			switch in.Op {
			case ir.OpFMov, ir.OpIMov:
				r.Copies++
			case ir.OpFSpill, ir.OpISpill:
				r.SpillStores++
			case ir.OpFReload, ir.OpIReload:
				r.SpillReloads++
			}
			if in.IsConflictRelevant() {
				r.ConflictRelevant++
				pen := Penalty(in, file)
				if pen > 0 {
					r.ConflictInstrs++
					r.StaticConflicts += pen
					r.WeightedConflicts += float64(pen) * cost
				}
			}
			if file.HasSubgroups() && violatesSubgroup(in, file) {
				r.SubgroupViolations++
			}
		}
	}
	return r
}

// Penalty returns the bank-conflict penalty of one instruction: the number
// of extra cycles needed to serialize its FP register reads through
// single-ported banks (0 when operands are virtual, i.e. before
// allocation).
func Penalty(in *ir.Instr, file bankfile.Config) int {
	if file.NumBanks <= 0 {
		return 0 // no register-file model: nothing to collide in
	}
	// Count distinct registers per bank: the same register read twice
	// (x*x) is a single port access the hardware fans out, not a conflict.
	// Instructions read at most a handful of operands, so the dedup and the
	// per-bank counting run as nested scans over in.Uses instead of two
	// maps — Penalty is called for every instruction of every compiled
	// function and must not allocate.
	pen := 0
	for i, u := range in.Uses {
		if in.Op.UseClass(i) != ir.ClassFP || !u.IsFPR() || !firstFPRead(in, i, u) {
			continue
		}
		b := file.Bank(u.FPRIndex())
		// Attribute the bank's count to its first distinct register.
		firstOfBank := true
		for j := 0; j < i; j++ {
			v := in.Uses[j]
			if in.Op.UseClass(j) != ir.ClassFP || !v.IsFPR() || !firstFPRead(in, j, v) {
				continue
			}
			if file.Bank(v.FPRIndex()) == b {
				firstOfBank = false
				break
			}
		}
		if !firstOfBank {
			continue
		}
		cnt := 1
		for j := i + 1; j < len(in.Uses); j++ {
			v := in.Uses[j]
			if in.Op.UseClass(j) != ir.ClassFP || !v.IsFPR() || !firstFPRead(in, j, v) {
				continue
			}
			if file.Bank(v.FPRIndex()) == b {
				cnt++
			}
		}
		if cnt > file.ReadPorts {
			pen += cnt - file.ReadPorts
		}
	}
	return pen
}

// firstFPRead reports whether use slot i is the first FP read of register u
// in the instruction (later reads of the same register reuse the port).
func firstFPRead(in *ir.Instr, i int, u ir.Reg) bool {
	for j := 0; j < i; j++ {
		if in.Uses[j] == u && in.Op.UseClass(j) == ir.ClassFP {
			return false
		}
	}
	return true
}

// violatesSubgroup reports whether a vector ALU instruction's FP operands
// (uses and def) span multiple subgroups.
func violatesSubgroup(in *ir.Instr, file bankfile.Config) bool {
	if !in.Op.IsVectorALU() {
		return false
	}
	sub := -1
	check := func(r ir.Reg) bool {
		if !r.IsFPR() {
			return false
		}
		s := file.Subgroup(r.FPRIndex())
		if sub < 0 {
			sub = s
			return false
		}
		return s != sub
	}
	for i, u := range in.Uses {
		if in.Op.UseClass(i) == ir.ClassFP && check(u) {
			return true
		}
	}
	for _, d := range in.Defs {
		if check(d) {
			return true
		}
	}
	return false
}

// Class is the Figure 1 program taxonomy.
type Class int

const (
	// Irrelevant: the program contains no conflict-relevant instruction.
	Irrelevant Class = iota
	// Free: conflict-relevant, but no instruction triggers a conflict.
	Free
	// Conflicting: conflict-relevant and at least one conflict remains.
	Conflicting
)

// String returns the paper's label for the class.
func (c Class) String() string {
	switch c {
	case Irrelevant:
		return "conflict-irrelevant"
	case Free:
		return "conflict-free"
	default:
		return "conflict"
	}
}

// Classify applies the Figure 1 taxonomy to an allocated function.
func Classify(r *Report) Class {
	switch {
	case r.ConflictRelevant == 0:
		return Irrelevant
	case r.StaticConflicts == 0:
		return Free
	default:
		return Conflicting
	}
}
