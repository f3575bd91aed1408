package phaseorder_test

import (
	"strings"
	"testing"

	"prescount/tools/lint/linttest"
	"prescount/tools/lint/phaseorder"
)

// header imports every phase package the fixtures touch. The blank uses keep
// fixtures that call only a subset compiling.
const header = `package fixture
import (
	"prescount/internal/coalesce"
	"prescount/internal/sdg"
	"prescount/internal/sched"
	"prescount/internal/assign"
	"prescount/internal/regalloc"
	"prescount/internal/renumber"
	"prescount/internal/conflict"
)
var _ = coalesce.Run
var _ = sdg.Split
var _ = sched.Run
var _ = assign.PresCount
var _ = regalloc.Run
var _ = renumber.Run
var _ = conflict.Analyze
`

// phaseTable declares the entry type of the table fixtures.
const phaseTable = `type phase struct {
	name string
	run  func(f any)
}
`

// TestPhaseOrder drives the analyzer over fixture pipelines. The
// out-of-order fixtures double as the CI self-test seed.
func TestPhaseOrder(t *testing.T) {
	cases := []struct {
		name string
		file string // fixture file name; "fixture.go" when empty
		src  string
		want []string // substring each finding must contain, in order
	}{
		{
			name: "figure4-order-clean",
			src: `func pipeline(f any) {
	coalesce.Run(f)
	sdg.Split(f)
	sched.Run(f)
	assign.PresCount(f)
	regalloc.Run(f)
	renumber.Run(f)
	conflict.Analyze(f)
}`,
		},
		{
			name: "skipping-phases-clean",
			src: `func pipeline(f any) {
	coalesce.RunCached(f)
	sched.Run(f)
	regalloc.RunLinearScan(f)
	conflict.AnalyzeWith(f)
}`,
		},
		{
			name: "sched-after-regalloc-flagged",
			src: `func pipeline(f any) {
	regalloc.Run(f)
	sched.Run(f)
}`,
			want: []string{"sched.Run"},
		},
		{
			// core picks its allocator in a switch: every entry ranks.
			name: "runcontext-before-sched-flagged",
			src: `func pipeline(f any) {
	regalloc.RunContext(f)
	sched.Run(f)
}`,
			want: []string{"sched.Run"},
		},
		{
			name: "runbinpack-after-conflict-flagged",
			src: `func pipeline(f any) {
	conflict.Analyze(f)
	regalloc.RunBinpack(f)
}`,
			want: []string{"regalloc.RunBinpack"},
		},
		{
			name: "coalesce-after-split-flagged",
			src: `func pipeline(f any) {
	sdg.Split(f)
	coalesce.Run(f)
}`,
			want: []string{"coalesce.Run"},
		},
		{
			name: "two-inversions-two-findings",
			src: `func pipeline(f any) {
	conflict.Analyze(f)
	regalloc.Run(f)
	sched.Run(f)
}`,
			want: []string{"regalloc.Run", "sched.Run"},
		},
		{
			name: "same-rank-repeat-clean",
			src: `func pipeline(f any) {
	regalloc.Run(f)
	regalloc.RunLinearScan(f)
}`,
		},
		{
			// Function literals run on their own schedule; a fresh pipeline
			// inside one is not an inversion of the enclosing body.
			name: "nested-funclit-separate-body",
			src: `func pipeline(f any) {
	regalloc.Run(f)
	redo := func() {
		coalesce.Run(f)
		sched.Run(f)
	}
	redo()
	conflict.Analyze(f)
}`,
		},
		{
			// sdg.Build is a query, not a phase: legal at any point.
			name: "unranked-query-clean",
			src: `func pipeline(f any) {
	conflict.Analyze(f)
	sdg.Build(f)
}`,
		},
		{
			// A table of phases ranks in source order, function literals
			// included.
			name: "phase-table-in-order-clean",
			src: phaseTable + `var phases = []phase{
	{"coalesce", func(f any) { coalesce.RunCached(f) }},
	{"sdg-split", func(f any) { sdg.Split(f) }},
	{"sched", func(f any) { sched.Run(f) }},
	{"regalloc", func(f any) {
		sdg.Build(f)
		regalloc.RunContext(f)
	}},
	{"conflict-analysis", func(f any) { conflict.AnalyzeWith(f) }},
}`,
		},
		{
			name: "phase-table-swapped-flagged",
			src: phaseTable + `var phases = []phase{
	{"coalesce", func(f any) { coalesce.RunCached(f) }},
	{"sched", func(f any) { sched.Run(f) }},
	{"sdg-split", func(f any) { sdg.Split(f) }},
	{"conflict-analysis", func(f any) { conflict.AnalyzeWith(f) }},
}`,
			want: []string{"sdg.Split"},
		},
		{
			// An inversion inside one entry's function literal is one
			// finding, though both the body and the table rank it.
			name: "phase-table-inversion-in-entry-reported-once",
			src: phaseTable + `var phases = []phase{
	{"alloc", func(f any) {
		regalloc.Run(f)
		assign.PresCount(f)
	}},
}`,
			want: []string{"assign.PresCount"},
		},
		{
			// Test files hold tables of independent cases.
			name: "phase-table-in-test-file-unchecked",
			file: "fixture_test.go",
			src: phaseTable + `var cases = []phase{
	{"sched", func(f any) { sched.Run(f) }},
	{"coalesce", func(f any) { coalesce.Run(f) }},
}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			file := tc.file
			if file == "" {
				file = "fixture.go"
			}
			diags := linttest.Check(t, phaseorder.Analyzer, "prescount/fixture", file, header+tc.src)
			if len(diags) != len(tc.want) {
				t.Fatalf("got %d findings, want %d: %v", len(diags), len(tc.want), diags)
			}
			for i, sub := range tc.want {
				if !strings.Contains(diags[i].Message, sub) {
					t.Errorf("finding %d = %q, want mention of %q", i, diags[i].Message, sub)
				}
			}
		})
	}
}
