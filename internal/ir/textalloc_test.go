//go:build !race

package ir_test

import (
	"runtime/debug"
	"testing"

	"prescount/internal/ir"
	"prescount/internal/workload"
)

// Allocation budgets of the text path on RandomSized(0, 500), about 1.5x
// the measured counts (89 / 2 / 5). The line-scanner parser and fmt-based
// printer they replaced spent 8,001 / 7,879 / 7,999: one or more
// allocations per line, operand and register.
const (
	parseAllocBudget       = 135
	printAllocBudget       = 3
	fingerprintAllocBudget = 8
)

// TestTextAllocBudget is the CI allocation gate of Parse, Print and
// Fingerprint: a parse draws its instructions and operand lists from a few
// slabs, and printing and fingerprinting append into one buffer. Excluded
// under -race (instrumentation skews malloc counts); GC is paused during
// measurement, as in TestCompileWarmAllocBudget.
func TestTextAllocBudget(t *testing.T) {
	f := workload.RandomSized(0, 500)
	src := ir.Print(f)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct {
		name   string
		budget float64
		run    func()
	}{
		{"parse", parseAllocBudget, func() {
			if _, err := ir.Parse(src); err != nil {
				t.Fatal(err)
			}
		}},
		{"print", printAllocBudget, func() { _ = ir.Print(f) }},
		{"fingerprint", fingerprintAllocBudget, func() {
			f.MarkMutated()
			_ = f.Fingerprint()
		}},
	} {
		avg := testing.AllocsPerRun(10, c.run)
		if avg > c.budget {
			t.Errorf("%s averaged %.0f allocs, budget %.0f: the text path went back to allocating per line", c.name, avg, c.budget)
		}
		t.Logf("%s: %.0f allocs (budget %.0f)", c.name, avg, c.budget)
	}
}
