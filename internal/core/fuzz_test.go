package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"prescount/internal/bankfile"
	"prescount/internal/workload"
)

// quick-check: any random well-formed function compiles under every method
// and register file, and allocation never changes its observable behaviour
// (memory image after execution).
func TestPipelineSemanticsQuick(t *testing.T) {
	configs := []Options{
		{File: bankfile.RV2(2), Method: MethodNon},
		{File: bankfile.RV2(2), Method: MethodBCR},
		{File: bankfile.RV2(2), Method: MethodBRC},
		{File: bankfile.RV2(2), Method: MethodBPC},
		{File: bankfile.RV2(4), Method: MethodBPC},
		{File: bankfile.RV1(8), Method: MethodBPC},
		{File: bankfile.DSA(1024), Method: MethodBPC, Subgroups: true},
		{File: bankfile.Config{NumRegs: 8, NumBanks: 2, NumSubgroups: 1, ReadPorts: 1}, Method: MethodBPC},
		{File: bankfile.RV2(2), Method: MethodBPC, LinearScan: true},
	}
	check := func(seed int64) bool {
		f := workload.Random(seed)
		for _, opts := range configs {
			opts.VerifySemantics = true
			opts.VerifyMemSize = 1 << 10
			opts.VerifyEach = true // phase-boundary verifier as a second oracle
			if _, err := Compile(f, opts); err != nil {
				t.Logf("seed %d, config %+v: %v", seed, opts, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// quick-check: bpc leaves no more static conflicts than non in aggregate
// over random functions on a rich 2-banked file, and where it leaves more
// on one function, Algorithm 1 forced a node into a conflicting bank. The
// paper claims an aggregate reduction, not per-function dominance: on the
// four known seeds below, bpc's static conflicts are exactly its forced
// nodes, with no spills, copies or bank breaks. They run every time,
// beside a fixed quick.Check draw.
func TestBPCNeverWorseQuick(t *testing.T) {
	known := []int64{-719689692992412041, 6518025073321568480, -433825043789587546, 1490140454586674316}
	file := bankfile.RV1(2)
	var sumNon, sumBPC int
	check := func(seed int64) bool {
		f := workload.Random(seed)
		non, err := Compile(f, Options{File: file, Method: MethodNon})
		if err != nil {
			t.Logf("seed %d: non: %v", seed, err)
			return false
		}
		bpc, err := Compile(f, Options{File: file, Method: MethodBPC})
		if err != nil {
			t.Logf("seed %d: bpc: %v", seed, err)
			return false
		}
		sumNon += non.Report.StaticConflicts
		sumBPC += bpc.Report.StaticConflicts
		if bpc.Report.StaticConflicts > non.Report.StaticConflicts && bpc.BankAssignForced == 0 {
			t.Logf("seed %d: bpc %d > non %d with no forced bank assignment", seed,
				bpc.Report.StaticConflicts, non.Report.StaticConflicts)
			return false
		}
		return true
	}
	for _, seed := range known {
		if !check(seed) {
			t.Errorf("known seed %d failed", seed)
		}
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
	if sumBPC > sumNon {
		t.Errorf("bpc leaves %d static conflicts in total, non %d", sumBPC, sumNon)
	}
}
