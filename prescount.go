// Package prescount is a from-scratch reproduction of "PresCount: Effective
// Register Allocation for Bank Conflict Reduction" (CGO 2024): a register
// allocator for multi-banked register files that assigns register banks by
// coloring the Register Conflict Graph in conflict-cost order while
// tracking per-bank live-range pressure, plus an SDG-based subgroup
// splitting technique for bank-subgroup (DSA) register files.
//
// The package is a facade over the implementation:
//
//   - build or parse machine IR (NewBuilder, Parse, ParseModule);
//   - pick a register file (RV1, RV2, DSA or a custom RegisterFile);
//   - compile with Compile/CompileModule under one of the paper's four
//     methods: MethodNon (bank-oblivious baseline), MethodBCR (greedy
//     per-instruction hinting, the Intel-GC-style baseline), MethodBRC
//     (post-allocation register renumbering) or MethodBPC (the paper's
//     PresCount); or under MethodBinpack, MethodColoring, or
//     MethodPortfolio, which races four methods per function;
//   - inspect the returned conflict report, or execute the allocated code
//     on the bundled simulator (Simulate) for dynamic conflict instances
//     and cycle counts;
//   - regenerate the paper's evaluation via the workload suites
//     (SuiteSPECfp, SuiteCNN, SuiteDSAOP) and cmd/benchtab.
//
// A minimal round trip:
//
//	b := prescount.NewBuilder("axpy")
//	base := b.IConst(0)
//	x := b.FLoad(base, 0)
//	y := b.FLoad(base, 1)
//	s := b.FAdd(x, y)
//	b.FStore(s, base, 2)
//	b.Ret()
//	res, err := prescount.Compile(b.Func(), prescount.Options{
//		File:   prescount.RV2(2),
//		Method: prescount.MethodBPC,
//	})
//	// res.Report.StaticConflicts == 0
package prescount

import (
	"fmt"

	"prescount/internal/bankfile"
	"prescount/internal/cfg"
	"prescount/internal/conflict"
	"prescount/internal/core"
	"prescount/internal/ir"
	"prescount/internal/liveness"
	"prescount/internal/rcg"
	"prescount/internal/rig"
	"prescount/internal/sdg"
	"prescount/internal/sim"
	"prescount/internal/viz"
	"prescount/internal/workload"
)

// IR types, re-exported for building and inspecting machine code.
type (
	// Func is a machine function: basic blocks over virtual or physical
	// registers.
	Func = ir.Func
	// Module is a named collection of functions.
	Module = ir.Module
	// Builder constructs functions programmatically.
	Builder = ir.Builder
	// Block is a basic block.
	Block = ir.Block
	// Instr is a machine instruction.
	Instr = ir.Instr
	// Reg is a register operand (virtual or physical).
	Reg = ir.Reg
	// Op is an instruction opcode.
	Op = ir.Op
)

// RegisterFile describes a multi-banked (optionally bank-subgrouped) FP
// register file.
type RegisterFile = bankfile.Config

// Method selects the bank-conflict mitigation strategy.
type Method = core.Method

// The methods compared throughout the paper, plus the two portfolio
// allocators and the portfolio that races them.
const (
	// MethodNon is default allocation with no bank awareness.
	MethodNon = core.MethodNon
	// MethodBCR is the greedy per-instruction hinting baseline.
	MethodBCR = core.MethodBCR
	// MethodBPC is the PresCount method.
	MethodBPC = core.MethodBPC
	// MethodBRC is the post-allocation register renumbering baseline.
	MethodBRC = core.MethodBRC
	// MethodBinpack is the second-chance binpacking allocator.
	MethodBinpack = core.MethodBinpack
	// MethodColoring is the timeout-guarded conflict-graph coloring
	// allocator (bails to linear scan when its work budget runs out).
	MethodColoring = core.MethodColoring
	// MethodPortfolio races bpc, brc, binpack and coloring on each function
	// and keeps the cheapest result; Result.Method names the winner.
	MethodPortfolio = core.MethodPortfolio
)

// ParseMethod maps a method name ("non", "bcr", "bpc", "brc", "binpack",
// "coloring", "portfolio") to its Method constant.
func ParseMethod(s string) (Method, bool) {
	m, err := core.ParseMethod(s)
	return m, err == nil
}

// Options configures a compilation (see core.Options for field docs).
type Options = core.Options

// Result is the outcome of compiling one function.
type Result = core.Result

// ModuleResult aggregates per-function results.
type ModuleResult = core.ModuleResult

// ConflictReport is the static conflict analysis of allocated code.
type ConflictReport = conflict.Report

// Diag is a structural or phase-boundary verifier diagnostic: the violated
// rule ID plus the function/block/instruction it points at. Compile errors
// produced under Options.VerifyEach (and input well-formedness failures)
// carry one, recoverable with errors.As.
type Diag = ir.Diag

// SimOptions configures a simulation run.
type SimOptions = sim.Options

// SimResult reports an executed simulation.
type SimResult = sim.Result

// Suite and Program describe generated benchmark workloads.
type (
	// Suite is a named set of benchmark programs.
	Suite = workload.Suite
	// Program is one benchmark executable.
	Program = workload.Program
)

// NewBuilder returns a builder for a new function.
func NewBuilder(name string) *Builder { return ir.NewBuilder(name) }

// NewModule returns an empty module.
func NewModule(name string) *Module { return ir.NewModule(name) }

// Parse reads a function in the textual MIR format.
func Parse(src string) (*Func, error) { return ir.Parse(src) }

// ParseModule reads a module in the textual MIR format.
func ParseModule(src string) (*Module, error) { return ir.ParseModule(src) }

// Print renders a function in the textual MIR format.
func Print(f *Func) string { return ir.Print(f) }

// PrintModule renders a module in the textual MIR format.
func PrintModule(m *Module) string { return ir.PrintModule(m) }

// RV1 returns the Platform-RV Setting #1 register file: 1024 FP registers
// in the given number of banks.
func RV1(banks int) RegisterFile { return bankfile.RV1(banks) }

// RV2 returns the Platform-RV Setting #2 register file: 32 FP registers in
// the given number of banks (the riscv-64 budget).
func RV2(banks int) RegisterFile { return bankfile.RV2(banks) }

// DSA returns the paper's 2-bank x 4-subgroup DSA register file with the
// given register count.
func DSA(regs int) RegisterFile { return bankfile.DSA(regs) }

// Compile runs the full Figure 4 pipeline (coalescing, optional subgroup
// splitting, scheduling, optional RCG bank assignment, enhanced register
// allocation) over a copy of f.
func Compile(f *Func, opts Options) (*Result, error) { return core.Compile(f, opts) }

// CompileModule compiles every function of m.
func CompileModule(m *Module, opts Options) (*ModuleResult, error) {
	return core.CompileModule(m, opts)
}

// Analyze runs static conflict analysis over a function (virtual or
// allocated) under the given register file.
func Analyze(f *Func, file RegisterFile) *ConflictReport { return conflict.Analyze(f, file) }

// Simulate executes a function on the bundled interpreter, counting dynamic
// bank-conflict instances and modeled cycles.
func Simulate(f *Func, opts SimOptions) (*SimResult, error) { return sim.Run(f, opts) }

// GraphDOT renders one of the pre-allocation analysis graphs of f as a
// Graphviz DOT document. kind selects "rig" (Register Interference Graph),
// "rcg" (Register Conflict Graph with Cost_R annotations) or "sdg" (Same
// Displacement Graph with its subgroup groups).
func GraphDOT(f *Func, kind string) (string, error) {
	switch kind {
	case "rig":
		cf := cfg.Compute(f)
		lv := liveness.Compute(f, cf)
		return viz.RIGDot(rig.Build(f, lv, ir.ClassFP), nil), nil
	case "rcg":
		return viz.RCGDot(rcg.Build(f, cfg.Compute(f)), nil), nil
	case "sdg":
		return viz.SDGDot(sdg.Build(f)), nil
	default:
		return "", fmt.Errorf("prescount: unknown graph kind %q (want rig, rcg or sdg)", kind)
	}
}

// SuiteSPECfp generates the synthetic SPECfp workload suite.
func SuiteSPECfp() *Suite { return workload.SPECfp() }

// SuiteCNN generates the 64-kernel CNN-KERNEL workload suite.
func SuiteCNN() *Suite { return workload.CNN() }

// SuiteDSAOP generates the eight DSA-OP kernels.
func SuiteDSAOP() *Suite { return workload.DSAOP() }
