// Package phaseorder flags calls to the Figure-4 pipeline phases that
// appear out of pipeline order within one function body. The paper's
// pipeline is a fixed sequence —
//
//	coalesce → SDG subgroup splitting → pre-alloc scheduling →
//	RCG bank assignment → register allocation → renumbering →
//	conflict analysis
//
// — and each phase consumes invariants the previous ones establish
// (splitting must not be re-coalesced, bank assignment reads post-sched
// liveness, renumbering requires physical code). Calling sched.Run after
// regalloc.Run is not an exotic style choice; it is a bug the type system
// cannot see. The analyzer assigns each phase entry point a rank and
// reports any call whose rank is lower than an earlier call's in the same
// function body (nested function literals are separate bodies; graph
// builders like sdg.Build are queries, not phases, and carry no rank).
// A composite literal in a non-test file is ranked the same way, function
// literals included, so a table of phases must list them in pipeline
// order; test files hold tables of independent cases and are exempt.
package phaseorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"prescount/tools/lint/analysis"
)

// Analyzer is the phaseorder check.
var Analyzer = &analysis.Analyzer{
	Name: "phaseorder",
	Doc:  "flag Figure-4 pipeline phases called out of pipeline order",
	Run:  run,
}

// phaseRanks maps package import path → entry-point name → pipeline rank.
var phaseRanks = map[string]map[string]int{
	"prescount/internal/coalesce": {"Run": 1, "RunCached": 1},
	"prescount/internal/sdg":      {"Split": 2},
	"prescount/internal/sched":    {"Run": 3},
	"prescount/internal/assign":   {"PresCount": 4},
	"prescount/internal/regalloc": {
		"Run": 5, "RunContext": 5, "RunLinearScan": 5, "RunBinpack": 5, "RunColoring": 5,
	},
	"prescount/internal/renumber": {"Run": 6},
	"prescount/internal/conflict": {"Analyze": 7, "AnalyzeWith": 7},
}

var rankName = map[int]string{
	1: "register coalescing",
	2: "SDG subgroup splitting",
	3: "pre-allocation scheduling",
	4: "RCG bank assignment",
	5: "register allocation",
	6: "renumbering",
	7: "conflict analysis",
}

func run(pass *analysis.Pass) error {
	reported := map[token.Pos]bool{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkSeq(pass, fn.Body, false, reported)
				}
			case *ast.FuncLit:
				checkSeq(pass, fn.Body, false, reported)
			}
			return true
		})
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.CompositeLit); ok {
				checkSeq(pass, lit, true, reported)
				return false // the outermost literal covers the nested ones
			}
			return true
		})
	}
	return nil
}

// checkSeq scans root in source order and reports rank inversions, each
// call at most once. A function body skips nested function literals (they
// run on their own schedule); a composite literal enters them.
func checkSeq(pass *analysis.Pass, root ast.Node, enterFuncLits bool, reported map[token.Pos]bool) {
	maxRank := 0
	var maxCall string
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && !enterFuncLits {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, rank, ok := phaseCall(pass, call)
		if !ok {
			return true
		}
		if rank < maxRank {
			if !reported[call.Pos()] {
				reported[call.Pos()] = true
				pass.Reportf(call.Pos(),
					"pipeline phase %s (%s) called after %s: violates the Figure-4 phase order",
					name, rankName[rank], maxCall)
			}
		} else if rank > maxRank {
			maxRank, maxCall = rank, name
		}
		return true
	})
}

// phaseCall resolves a call expression to a pipeline phase, preferring type
// information (the selector's package identifier must resolve to the phase
// package) and falling back to the package's base name when the identifier
// has no recorded object (partially typed fixtures).
func phaseCall(pass *analysis.Pass, call *ast.CallExpr) (string, int, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", 0, false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", 0, false
	}
	if obj, ok := pass.TypesInfo.Uses[id]; ok {
		pn, ok := obj.(*types.PkgName)
		if !ok {
			return "", 0, false
		}
		path := pn.Imported().Path()
		if rank, ok := phaseRanks[path][sel.Sel.Name]; ok {
			return id.Name + "." + sel.Sel.Name, rank, true
		}
		return "", 0, false
	}
	for path, funcs := range phaseRanks {
		if path[strings.LastIndex(path, "/")+1:] != id.Name {
			continue
		}
		if rank, ok := funcs[sel.Sel.Name]; ok {
			return id.Name + "." + sel.Sel.Name, rank, true
		}
	}
	return "", 0, false
}
