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

// TestPhaseOrder drives the analyzer over fixture pipelines. The
// out-of-order fixtures double as the CI self-test seed.
func TestPhaseOrder(t *testing.T) {
	cases := []struct {
		name string
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags := linttest.Check(t, phaseorder.Analyzer, "prescount/fixture", "fixture.go", header+tc.src)
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
