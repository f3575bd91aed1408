// Package regset keeps per-register state dense in the compile pipeline's
// hot packages. The zero-allocation compile path replaced every
// map[ir.Reg]bool set with ir.RegSet — a dense bitset over the compact
// virtual-register index space (Add/Has/Remove/Clear/ForEach/UnionWith)
// that is reused across compiles and costs nothing per element — and this
// check keeps new code from regressing back to the one-heap-map-per-call
// pattern.
//
// Two rules apply, by package:
//
//   - In DenseMapPkgs (liveness, rcg, sim) every map keyed by ir.Reg is
//     flagged, whatever its value type: their per-register tables are
//     slices indexed by VirtIndex (or by physical register id), as LLVM
//     keeps such state in arrays indexed by virtual-register number.
//   - In the other HotPkgs only map[ir.Reg]bool is flagged. regalloc and
//     assign still export map[ir.Reg]int options and results that core,
//     the codec and the benchmark harness read, and the binpack and
//     linear-scan allocators keep their maps.
//
// The analyzer fires on any mention of a flagged map type — make calls,
// composite literals, variable declarations, fields, signatures — since
// every mention is either an allocation site or plumbing that will force
// one. Test files are exempt (benchmark baselines, naive references and
// assertion scaffolding may build whatever maps they like), and the verify
// package is deliberately not in the hot set: it runs off the compile path
// and favors the obvious data structure.
package regset

import (
	"go/ast"
	"go/types"
	"strings"

	"prescount/tools/lint/analysis"
)

// Analyzer is the regset check.
var Analyzer = &analysis.Analyzer{
	Name: "regset",
	Doc:  "flag map[ir.Reg]bool register sets in hot compile-pipeline packages (any map[ir.Reg]T in the dense ones); use ir.RegSet or a VirtIndex-indexed slice",
	Run:  run,
}

// HotPkgs lists the import paths on the per-compile hot path, where a
// register set must be an ir.RegSet bitset rather than a heap map.
var HotPkgs = map[string]bool{
	"prescount/internal/liveness": true,
	"prescount/internal/sched":    true,
	"prescount/internal/sdg":      true,
	"prescount/internal/coalesce": true,
	"prescount/internal/conflict": true,
	"prescount/internal/rcg":      true,
	"prescount/internal/regalloc": true,
	"prescount/internal/assign":   true,
	"prescount/internal/sim":      true,
}

// DenseMapPkgs lists the hot packages with no map keyed by ir.Reg at all:
// there the check flags map[ir.Reg]T for every T.
var DenseMapPkgs = map[string]bool{
	"prescount/internal/liveness": true,
	"prescount/internal/rcg":      true,
	"prescount/internal/sim":      true,
}

// irPkgPath is the package whose Reg type keys the flagged maps.
const irPkgPath = "prescount/internal/ir"

func run(pass *analysis.Pass) error {
	if !HotPkgs[pass.Pkg.Path()] {
		return nil
	}
	anyValue := DenseMapPkgs[pass.Pkg.Path()]
	for _, file := range pass.Files {
		if name := pass.Fset.Position(file.Pos()).Filename; strings.HasSuffix(name, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			mt, ok := n.(*ast.MapType)
			if !ok {
				return true
			}
			isReg, isBoolVal := regKeyedMap(pass, mt)
			switch {
			case isReg && isBoolVal:
				pass.Reportf(mt.Pos(),
					"map[ir.Reg]bool register set in hot package %s: use ir.RegSet (dense bitset, reused across compiles) instead of a per-call heap map",
					pass.Pkg.Path())
			case isReg && anyValue:
				pass.Reportf(mt.Pos(),
					"map keyed by ir.Reg in dense package %s: use a slice indexed by VirtIndex (or physical register id) instead",
					pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}

// regKeyedMap reports whether the map type is keyed by ir.Reg, and whether
// its value is bool, preferring type information and falling back to
// syntax when the expression was not typechecked (e.g. inside a type
// declaration some checkers skip).
func regKeyedMap(pass *analysis.Pass, mt *ast.MapType) (isReg, isBoolVal bool) {
	if t := pass.TypesInfo.TypeOf(mt); t != nil {
		m, ok := t.Underlying().(*types.Map)
		if !ok || !isIrReg(m.Key()) {
			return false, false
		}
		return true, isBool(m.Elem())
	}
	// Syntactic fallback: key spelled ir.Reg (or any package alias resolving
	// to the ir package), value spelled bool.
	sel, ok := mt.Key.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Reg" {
		return false, false
	}
	pkgID, ok := sel.X.(*ast.Ident)
	if !ok {
		return false, false
	}
	if obj, ok := pass.TypesInfo.Uses[pkgID]; ok {
		pn, ok := obj.(*types.PkgName)
		if !ok || pn.Imported().Path() != irPkgPath {
			return false, false
		}
	} else if pkgID.Name != "ir" {
		return false, false
	}
	val, ok := mt.Value.(*ast.Ident)
	return true, ok && val.Name == "bool"
}

// isIrReg reports whether t is the named type prescount/internal/ir.Reg.
func isIrReg(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Reg" && obj.Pkg() != nil && obj.Pkg().Path() == irPkgPath
}

// isBool reports whether t's underlying type is bool.
func isBool(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Bool
}
