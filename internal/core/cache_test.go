package core

import (
	"testing"

	"prescount/internal/bankfile"
	"prescount/internal/cfg"
	"prescount/internal/ir"
	"prescount/internal/liveness"
)

// analysisKey identifies one analysis run: which function instance at
// which IR mutation generation.
type analysisKey struct {
	f   *ir.Func
	gen uint64
}

// TestAnalysesComputedOncePerGeneration is the analysis-cache acceptance
// check: in a full MethodBPC compile, cfg.Compute and liveness.Compute
// each run at most once per (function, IR generation) — and, because every
// pipeline phase preserves control flow, cfg.Compute runs exactly once for
// the compiled clone.
func TestAnalysesComputedOncePerGeneration(t *testing.T) {
	cfgRuns := map[analysisKey]int{}
	livRuns := map[analysisKey]int{}
	cfg.TestHookCompute = func(f *ir.Func) { cfgRuns[analysisKey{f, f.Generation()}]++ }
	liveness.TestHookCompute = func(f *ir.Func) { livRuns[analysisKey{f, f.Generation()}]++ }
	defer func() {
		cfg.TestHookCompute = nil
		liveness.TestHookCompute = nil
	}()

	f := hotConflicts(t)
	if _, err := Compile(f, Options{File: bankfile.RV2(2), Method: MethodBPC}); err != nil {
		t.Fatal(err)
	}

	for k, n := range cfgRuns {
		if n > 1 {
			t.Errorf("cfg.Compute ran %d times for %s at generation %d", n, k.f.Name, k.gen)
		}
	}
	for k, n := range livRuns {
		if n > 1 {
			t.Errorf("liveness.Compute ran %d times for %s at generation %d", n, k.f.Name, k.gen)
		}
	}
	if total := len(cfgRuns); total != 1 {
		t.Errorf("cfg.Compute ran %d times across the compile, want exactly 1 (all phases preserve control flow)", total)
	}
	if len(livRuns) == 0 {
		t.Error("liveness.Compute never observed — hook wiring broken")
	}
}

// TestBRCSingleCFGCompute pins the former duplicated cfg.Compute in the
// brc path (renumber + conflict analysis each recomputing): the whole brc
// compile must also get by on one CFG computation.
func TestBRCSingleCFGCompute(t *testing.T) {
	runs := 0
	cfg.TestHookCompute = func(*ir.Func) { runs++ }
	defer func() { cfg.TestHookCompute = nil }()

	f := hotConflicts(t)
	if _, err := Compile(f, Options{File: bankfile.RV2(2), Method: MethodBRC}); err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("brc compile ran cfg.Compute %d times, want 1", runs)
	}
}
