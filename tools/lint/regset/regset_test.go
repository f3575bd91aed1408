package regset_test

import (
	"testing"

	"prescount/tools/lint/linttest"
	"prescount/tools/lint/regset"
)

// schedPkg is a hot package: regset scans it.
const schedPkg = "prescount/internal/sched"

// TestRegSet drives the analyzer over fixture sources: seeded map[ir.Reg]bool
// mentions in hot packages must be flagged, and the exemptions (cold
// packages, test files, other map shapes) must stay silent.
func TestRegSet(t *testing.T) {
	cases := []struct {
		name string
		pkg  string // import path; default schedPkg
		file string // file name; default fixture.go
		src  string
		want int // findings
	}{
		{
			name: "make-flagged",
			src: `package sched
import "prescount/internal/ir"
func f(n int) map[ir.Reg]bool {
	return make(map[ir.Reg]bool, n)
}`,
			want: 2, // result type + make
		},
		{
			name: "composite-literal-flagged",
			src: `package sched
import "prescount/internal/ir"
func f(r ir.Reg) bool {
	seen := map[ir.Reg]bool{r: true}
	return seen[r]
}`,
			want: 1,
		},
		{
			name: "var-decl-flagged",
			src: `package sched
import "prescount/internal/ir"
var live map[ir.Reg]bool`,
			want: 1,
		},
		{
			name: "struct-field-flagged",
			src: `package sched
import "prescount/internal/ir"
type state struct {
	seen map[ir.Reg]bool
}`,
			want: 1,
		},
		{
			name: "other-value-type-benign",
			src: `package sched
import "prescount/internal/ir"
func f() map[ir.Reg]int {
	return map[ir.Reg]int{}
}`,
			want: 0,
		},
		{
			name: "any-value-flagged-in-dense-package",
			pkg:  "prescount/internal/rcg",
			src: `package rcg
import "prescount/internal/ir"
type graph struct {
	cost map[ir.Reg]float64
}`,
			want: 1,
		},
		{
			name: "any-value-flagged-in-sim",
			pkg:  "prescount/internal/sim",
			src: `package sim
import "prescount/internal/ir"
func f(r ir.Reg) float64 {
	regs := make(map[ir.Reg]float64)
	return regs[r]
}`,
			want: 1,
		},
		{
			name: "bool-value-flagged-once-in-dense-package",
			pkg:  "prescount/internal/liveness",
			src: `package liveness
import "prescount/internal/ir"
var live map[ir.Reg]bool`,
			want: 1,
		},
		{
			name: "float-value-benign-in-bool-only-package",
			pkg:  "prescount/internal/regalloc",
			src: `package regalloc
import "prescount/internal/ir"
type state struct {
	weight map[ir.Reg]float64
}`,
			want: 0,
		},
		{
			name: "other-key-type-benign-in-dense-package",
			pkg:  "prescount/internal/sim",
			src: `package sim
func f() map[int64]float64 {
	return map[int64]float64{}
}`,
			want: 0,
		},
		{
			name: "other-key-type-benign",
			src: `package sched
func f() map[int]bool {
	return map[int]bool{}
}`,
			want: 0,
		},
		{
			name: "cold-package-benign",
			pkg:  "prescount/internal/verify",
			src: `package verify
import "prescount/internal/ir"
func f() map[ir.Reg]bool {
	return map[ir.Reg]bool{}
}`,
			want: 0,
		},
		{
			name: "test-file-benign",
			file: "fixture_test.go",
			src: `package sched
import "prescount/internal/ir"
func f() map[ir.Reg]bool {
	return map[ir.Reg]bool{}
}`,
			want: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkg, file := tc.pkg, tc.file
			if pkg == "" {
				pkg = schedPkg
			}
			if file == "" {
				file = "fixture.go"
			}
			diags := linttest.Check(t, regset.Analyzer, pkg, file, tc.src)
			if len(diags) != tc.want {
				t.Fatalf("got %d findings, want %d: %v", len(diags), tc.want, diags)
			}
		})
	}
}
