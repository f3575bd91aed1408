package tv_test

import (
	"context"
	"testing"

	"prescount/internal/bankfile"
	"prescount/internal/core"
	"prescount/internal/tv"
	"prescount/internal/workload"
)

// coreMethods are the six single-allocator methods; the portfolio rides on
// top of them and is exercised separately, so together the corpus covers
// all 7 methods.
var coreMethods = []core.Method{
	core.MethodNon, core.MethodBCR, core.MethodBPC, core.MethodBRC,
	core.MethodBinpack, core.MethodColoring,
}

// TestValidateWorkloadCorpus compiles the full workload corpus (CNN,
// DSAOP, SPECfp suites plus random functions) under Options.Validate for
// every single-allocator method: a clean pipeline must validate clean.
// A small register file forces spilling, so loop-carried values through
// spill/reload across back edges are exercised, not just straight
// renames.
func TestValidateWorkloadCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep is long under -short")
	}
	files := []bankfile.Config{
		bankfile.RV2(2),
		{NumRegs: 8, NumBanks: 2, NumSubgroups: 1, ReadPorts: 1}, // heavy spilling
	}
	for _, suite := range []*workload.Suite{workload.CNN(), workload.DSAOP(), workload.SPECfp()} {
		for _, prog := range suite.Programs {
			for _, f := range prog.Funcs() {
				for _, m := range coreMethods {
					for _, file := range files {
						opts := core.Options{File: file, Method: m, Validate: true}
						if _, err := core.Compile(f, opts); err != nil {
							t.Fatalf("%s/%s method=%v file=%v: %v", suite.Name, f.Name, m, file, err)
						}
					}
				}
			}
		}
	}
}

// TestValidateRandomCorpus sweeps generated functions — the same
// generator family the differential allocator tests use — through every
// method under validation.
func TestValidateRandomCorpus(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		f := workload.Random(seed)
		for _, m := range coreMethods {
			opts := core.Options{File: bankfile.RV2(4), Method: m, Validate: true}
			if _, err := core.Compile(f, opts); err != nil {
				t.Fatalf("seed %d method %v: %v", seed, m, err)
			}
		}
	}
}

// TestValidateRandomSized pins the degenerate-phi collapse in the
// reference fixpoint: RandomSized emits loop bodies whose live-in
// values are loop-invariant at downstream loop headers, which used to
// mint sticky phis out of transient mid-fixpoint disagreement and
// report false T001/T008 divergences on clean compiles. Sizes, seeds
// and files below reproduced the failure before the fix.
func TestValidateRandomSized(t *testing.T) {
	files := []bankfile.Config{
		bankfile.RV1(2),
		bankfile.RV2(4),
		{NumRegs: 8, NumBanks: 2, NumSubgroups: 1, ReadPorts: 1},
	}
	methods := []core.Method{core.MethodBPC, core.MethodBinpack}
	for _, size := range []int{64, 200, 800} {
		for seed := int64(0); seed < 4; seed++ {
			f := workload.RandomSized(seed, size)
			for _, file := range files {
				for _, m := range methods {
					opts := core.Options{File: file, Method: m, Validate: true}
					if _, err := core.Compile(f, opts); err != nil {
						t.Fatalf("size=%d seed=%d file=%v method=%v: %v", size, seed, file, m, err)
					}
				}
			}
		}
	}
}

// TestValidatePortfolioModes runs the portfolio (method 7 of the corpus
// matrix) with validation on: every candidate the racer compiles — winners
// and losers alike — goes through tv.Check inside core, so a racer can
// never win with a miscompile.
func TestValidatePortfolioModes(t *testing.T) {
	f := workload.Random(3)
	opts := core.Options{File: bankfile.RV2(2), Method: core.MethodPortfolio, Validate: true}
	res, err := core.CompileContext(context.Background(), f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("no result")
	}
}

// TestValidateDSAPath covers the subgroup-splitting pipeline: SDG
// splitting inserts cross-subgroup copies, which the validator must see
// through.
func TestValidateDSAPath(t *testing.T) {
	suite := workload.DSAOP()
	prog := suite.Programs[0]
	for _, f := range prog.Funcs() {
		opts := core.Options{File: bankfile.DSA(64), Method: core.MethodBPC, Subgroups: true, Validate: true}
		if _, err := core.Compile(f, opts); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
	}
}

// TestChecksRunCounts pins the wiring direction: a validated compile
// must bump tv.ChecksRun.
func TestChecksRunCounts(t *testing.T) {
	before := tv.ChecksRun()
	f := workload.Random(1)
	if _, err := core.Compile(f, core.Options{File: bankfile.RV2(2), Method: core.MethodBPC, Validate: true}); err != nil {
		t.Fatal(err)
	}
	if tv.ChecksRun() == before {
		t.Error("validated compile ran no tv checks; the wiring is dead")
	}
}
