package regalloc

import (
	"context"
	"testing"

	"prescount/internal/bankfile"
	"prescount/internal/conflict"
	"prescount/internal/ir"
	"prescount/internal/sim"
)

// colorWithBudget runs the coloring allocator with a work budget of the
// given number of units.
func colorWithBudget(t *testing.T, f *ir.Func, cfgFile bankfile.Config, budget int64) (*Result, *ir.Func) {
	t.Helper()
	r, err := runColoring(context.Background(), f, Options{Cfg: cfgFile, Method: MethodColoring}, budget)
	if err != nil {
		t.Fatalf("RunColoring: %v", err)
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	allPhysical(t, f)
	return r, f
}

func TestColoringAllocates(t *testing.T) {
	res, _ := colorWithBudget(t, widePressure(8), bankfile.RV2(2), coloringBudget)
	if res.SpilledVRegs != 0 {
		t.Errorf("unexpected spills %d", res.SpilledVRegs)
	}
	if res.ColoringBailed {
		t.Error("bailed on a trivial function under the default budget")
	}
}

func TestColoringPreservesSemantics(t *testing.T) {
	for _, n := range []int{8, 30, 40, 64, 100} {
		orig := widePressure(n)
		ref, err := sim.Run(orig, sim.Options{MemSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		work := orig.Clone()
		_, af := colorWithBudget(t, work, bankfile.RV2(2), coloringBudget)
		got, err := sim.Run(af, sim.Options{MemSize: 64, File: bankfile.RV2(2)})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.MemChecksum != ref.MemChecksum {
			t.Errorf("n=%d: coloring changed semantics", n)
		}
	}
}

func TestColoringSpillsUnderPressure(t *testing.T) {
	res, _ := colorWithBudget(t, widePressure(64), bankfile.RV2(2), coloringBudget)
	if res.SpilledVRegs == 0 {
		t.Fatal("expected spills under 2x overpressure")
	}
	if res.SpillStores == 0 || res.SpillReloads == 0 {
		t.Error("missing spill code")
	}
}

func TestColoringBailsOnTinyBudget(t *testing.T) {
	// An empty budget cannot even build the graph: the allocator must bail
	// to linear scan, still producing a valid allocation.
	orig := widePressure(40)
	ref, err := sim.Run(orig, sim.Options{MemSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	f := orig.Clone()
	res, af := colorWithBudget(t, f, bankfile.RV2(2), 0)
	if !res.ColoringBailed {
		t.Fatal("an empty budget did not trigger the bail path")
	}
	got, err := sim.Run(af, sim.Options{MemSize: 64, File: bankfile.RV2(2)})
	if err != nil {
		t.Fatal(err)
	}
	if got.MemChecksum != ref.MemChecksum {
		t.Error("bail path changed semantics")
	}
}

// TestColoringBailMatchesLinearScan sweeps the coloring budget: whenever
// coloring bails, its output must be linear scan's on a fresh copy of the
// function, printed text and spill slots alike, so nothing of the
// abandoned attempt (a spill slot taken in the FP pass, say) survives.
func TestColoringBailMatchesLinearScan(t *testing.T) {
	file := bankfile.RV2(2)
	for _, n := range []int{40, 64, 100} {
		bailed := func(budget int64) bool {
			res, _ := colorWithBudget(t, widePressure(n), file, budget)
			return res.ColoringBailed
		}
		// The charges do not depend on the budget, so a run bails exactly
		// when its budget is below the total work: find that total, and
		// sweep up to it. One unit short bails at the last charge, after
		// both passes placed and spilled.
		lo, total := int64(0), coloringBudget
		for total-lo > 1 {
			if mid := (lo + total) / 2; bailed(mid) {
				lo = mid
			} else {
				total = mid
			}
		}
		ls := widePressure(n)
		if _, err := RunLinearScan(ls, Options{Cfg: file}); err != nil {
			t.Fatal(err)
		}
		want := ir.Print(ls)
		bails := 0
		for _, budget := range []int64{0, total / 4, total / 2, 3 * total / 4, total - 2, total - 1, total} {
			res, f := colorWithBudget(t, widePressure(n), file, budget)
			if !res.ColoringBailed {
				continue
			}
			bails++
			if got := ir.Print(f); got != want || f.SpillSlots != ls.SpillSlots {
				t.Errorf("n=%d budget=%d of %d: bailed output differs from linear scan (spill slots %d, want %d)",
					n, budget, total, f.SpillSlots, ls.SpillSlots)
			}
		}
		if bails == 0 || bailed(total) {
			t.Errorf("n=%d: the sweep did not straddle the bail point (%d bails, total %d)", n, bails, total)
		}
	}
}

func TestColoringBailDeterministic(t *testing.T) {
	// Whether a function bails is a pure function of IR and options: two
	// identical runs agree on the flag and on the rewritten program.
	for _, budget := range []int64{0, 500, coloringBudget} {
		f1 := widePressure(64)
		f2 := widePressure(64)
		r1, _ := colorWithBudget(t, f1, bankfile.RV2(2), budget)
		r2, _ := colorWithBudget(t, f2, bankfile.RV2(2), budget)
		if r1.ColoringBailed != r2.ColoringBailed {
			t.Errorf("budget=%d: bail flag nondeterministic", budget)
		}
		if ir.Print(f1) != ir.Print(f2) {
			t.Errorf("budget=%d: coloring not deterministic", budget)
		}
	}
}

func TestColoringHonorsContextDeadline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunColoring(ctx, widePressure(64), Options{Cfg: bankfile.RV2(2), Method: MethodColoring})
	if err != context.Canceled {
		t.Fatalf("cancelled context: got %v, want context.Canceled", err)
	}
}

func TestColoringBankAware(t *testing.T) {
	// Two operands of one hot add should land in different banks when the
	// coloring has slack.
	bd := ir.NewBuilder("pair")
	base := bd.IConst(0)
	x := bd.FLoad(base, 0)
	y := bd.FLoad(base, 1)
	s := bd.FAdd(x, y)
	bd.FStore(s, base, 2)
	bd.Ret()
	f := bd.Func()
	cfgFile := bankfile.RV2(2)
	_, af := colorWithBudget(t, f, cfgFile, coloringBudget)
	r := conflict.Analyze(af, cfgFile)
	if r.StaticConflicts != 0 {
		t.Errorf("bank-aware coloring left %d conflicts on a 2-read pair", r.StaticConflicts)
	}
}

func TestColoringDeterministicVsRerun(t *testing.T) {
	f1 := widePressure(100)
	f2 := widePressure(100)
	colorWithBudget(t, f1, bankfile.RV2(2), coloringBudget)
	colorWithBudget(t, f2, bankfile.RV2(2), coloringBudget)
	if ir.Print(f1) != ir.Print(f2) {
		t.Error("coloring not deterministic")
	}
}
