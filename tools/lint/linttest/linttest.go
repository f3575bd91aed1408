// Package linttest typechecks small fixture sources in memory so analyzer
// tests can run without buildable export data. Imports resolve against
// synthesized stub packages: every stub exports the full set of function
// names the fixtures call (variadic `func(...any)`), which is enough for
// go/types and lets one importer serve the sort package and every pipeline
// phase package alike.
package linttest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path"
	"testing"

	"prescount/tools/lint/analysis"
	"prescount/tools/lint/load"
)

// stubFuncs are the exported functions every synthesized package carries.
var stubFuncs = []string{
	// sort / slices
	"Slice", "SliceStable", "Sort", "Stable", "Strings", "Ints", "Float64s",
	// pipeline phases + queries
	"Run", "RunCached", "RunContext", "RunLinearScan", "RunBinpack", "RunColoring",
	"Split", "PresCount",
	"Analyze", "AnalyzeWith", "Build", "Compute",
}

// stubTypes are exported named types every synthesized package carries
// (underlying uint32), so fixtures can spell types like ir.Reg and the
// type-driven analyzers (regset) see a properly named key type.
var stubTypes = []string{"Reg"}

// stubImporter synthesizes a package for any import path.
type stubImporter struct {
	cache map[string]*types.Package
}

func (si *stubImporter) Import(p string) (*types.Package, error) {
	if pkg, ok := si.cache[p]; ok {
		return pkg, nil
	}
	if p == "sync" {
		pkg := syncStub()
		si.cache[p] = pkg
		return pkg, nil
	}
	pkg := types.NewPackage(p, path.Base(p))
	anySlice := types.NewSlice(types.Universe.Lookup("any").Type())
	for _, name := range stubFuncs {
		sig := types.NewSignatureType(nil, nil, nil,
			types.NewTuple(types.NewVar(token.NoPos, pkg, "args", anySlice)),
			nil, true)
		pkg.Scope().Insert(types.NewFunc(token.NoPos, pkg, name, sig))
	}
	for _, name := range stubTypes {
		tn := types.NewTypeName(token.NoPos, pkg, name, nil)
		types.NewNamed(tn, types.Typ[types.Uint32], nil)
		pkg.Scope().Insert(tn)
	}
	pkg.MarkComplete()
	si.cache[p] = pkg
	return pkg, nil
}

// syncStub synthesizes a sync package with just enough shape for the
// guarded fixtures: Mutex and RWMutex as named empty structs carrying the
// pointer-receiver lock methods go/types needs to resolve mu.Lock() calls.
func syncStub() *types.Package {
	pkg := types.NewPackage("sync", "sync")
	for _, spec := range []struct {
		name    string
		methods []string
	}{
		{"Mutex", []string{"Lock", "Unlock"}},
		{"RWMutex", []string{"Lock", "Unlock", "RLock", "RUnlock"}},
	} {
		tn := types.NewTypeName(token.NoPos, pkg, spec.name, nil)
		named := types.NewNamed(tn, types.NewStruct(nil, nil), nil)
		for _, m := range spec.methods {
			recv := types.NewVar(token.NoPos, pkg, "m", types.NewPointer(named))
			sig := types.NewSignatureType(recv, nil, nil, nil, nil, false)
			named.AddMethod(types.NewFunc(token.NoPos, pkg, m, sig))
		}
		pkg.Scope().Insert(tn)
	}
	pkg.MarkComplete()
	return pkg
}

// Check typechecks src as a single-file package with import path pkgPath and
// file name filename, runs the analyzer over it, and returns the collected
// diagnostics. Typecheck failures are test fatals: a fixture that does not
// compile tests nothing.
func Check(t *testing.T, a *analysis.Analyzer, pkgPath, filename, src string) []analysis.Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing fixture: %v", err)
	}
	info := load.NewInfo()
	conf := types.Config{Importer: &stubImporter{cache: map[string]*types.Package{}}}
	pkg, err := conf.Check(pkgPath, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typechecking fixture: %v", err)
	}
	diags, err := analysis.Run([]*analysis.Analyzer{a}, fset, []*ast.File{f}, pkg, info)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	return diags
}
