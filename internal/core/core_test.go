package core

import (
	"strings"
	"testing"

	"prescount/internal/bankfile"
	"prescount/internal/ir"
)

// hotConflicts builds a function with many conflict-relevant instructions
// inside a loop, plus array initialization so simulation is meaningful.
func hotConflicts(t testing.TB) *ir.Func {
	t.Helper()
	bd := ir.NewBuilder("hot")
	base := bd.IConst(0)
	// init: mem[i] = i for i in [0, 64)
	bd.Loop(64, 1, func(i ir.Reg) {
		one := bd.FConst(1)
		acc := bd.FConst(0)
		_ = one
		_ = acc
	})
	// Simple deterministic init by stores of constants.
	for i := 0; i < 16; i++ {
		c := bd.FConst(float64(i + 1))
		bd.FStore(c, base, int64(i))
	}
	bd.Loop(32, 1, func(i ir.Reg) {
		var vals []ir.Reg
		for k := 0; k < 8; k++ {
			vals = append(vals, bd.FLoad(base, int64(k)))
		}
		// Pairwise two-read ops followed by a tree fold: plenty of
		// reducible conflict sites.
		var partial []ir.Reg
		for k := 0; k+1 < len(vals); k += 2 {
			partial = append(partial, bd.FMul(vals[k], vals[k+1]))
		}
		for len(partial) > 1 {
			var next []ir.Reg
			for k := 0; k+1 < len(partial); k += 2 {
				next = append(next, bd.FAdd(partial[k], partial[k+1]))
			}
			if len(partial)%2 == 1 {
				next = append(next, partial[len(partial)-1])
			}
			partial = next
		}
		s4 := bd.FMA(vals[0], vals[2], partial[0])
		bd.FStore(s4, base, 20)
	})
	bd.Ret()
	return bd.Func()
}

func TestCompileAllMethodsPreserveSemantics(t *testing.T) {
	f := hotConflicts(t)
	for _, m := range []Method{MethodNon, MethodBCR, MethodBPC} {
		for _, banks := range []int{2, 4, 8} {
			res, err := Compile(f, Options{
				File:            bankfile.RV2(banks),
				Method:          m,
				VerifySemantics: true,
				VerifyMemSize:   1 << 10,
			})
			if err != nil {
				t.Fatalf("%v/%d banks: %v", m, banks, err)
			}
			if res.Report.Instrs == 0 {
				t.Fatalf("%v: empty report", m)
			}
		}
	}
}

func TestBPCReducesConflictsVsNon(t *testing.T) {
	f := hotConflicts(t)
	get := func(m Method) int {
		res, err := Compile(f, Options{File: bankfile.RV2(2), Method: m})
		if err != nil {
			t.Fatal(err)
		}
		return res.Report.StaticConflicts
	}
	non := get(MethodNon)
	bpc := get(MethodBPC)
	if non == 0 {
		t.Fatal("baseline produced no conflicts; test is vacuous")
	}
	if bpc >= non {
		t.Errorf("bpc conflicts %d not below non %d", bpc, non)
	}
}

func TestInputFunctionUntouched(t *testing.T) {
	f := hotConflicts(t)
	before := ir.Print(f)
	if _, err := Compile(f, Options{File: bankfile.RV2(2), Method: MethodBPC}); err != nil {
		t.Fatal(err)
	}
	if ir.Print(f) != before {
		t.Error("Compile mutated its input")
	}
}

func TestSubgroupModeRequiresSubgroupFile(t *testing.T) {
	f := hotConflicts(t)
	if _, err := Compile(f, Options{File: bankfile.RV2(2), Method: MethodBPC, Subgroups: true}); err == nil {
		t.Error("subgroup mode accepted a non-subgrouped file")
	}
}

// TestBadRegisterFileIsAnError: a register file that Validate rejects
// fails the compile with Validate's error before any phase runs, under a
// single method and under the portfolio. Bank assignment runs before the
// allocator's own check, and a bank count of 0 or -1 panics there.
func TestBadRegisterFileIsAnError(t *testing.T) {
	f := hotConflicts(t)
	for _, banks := range []int{0, -1} {
		file := bankfile.Config{NumRegs: 32, NumBanks: banks, NumSubgroups: 1, ReadPorts: 1}
		want := file.Validate().Error()
		for _, m := range []Method{MethodBPC, MethodPortfolio} {
			if _, err := Compile(f, Options{File: file, Method: m}); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("banks=%d under %v: err = %v, want one naming %q", banks, m, err, want)
			}
		}
	}
}

// dsaKernel builds a DSA-style kernel with 2-input ops only.
func dsaKernel(t *testing.T) *ir.Func {
	t.Helper()
	bd := ir.NewBuilder("dsak")
	base := bd.IConst(0)
	for i := 0; i < 8; i++ {
		c := bd.FConst(float64(i + 1))
		bd.FStore(c, base, int64(i))
	}
	a := bd.FLoad(base, 0)
	acc := bd.FConst(0)
	for i := 0; i < 12; i++ {
		x := bd.FLoad(base, int64(i%8))
		p := bd.FMul(a, x)
		s := bd.FAdd(acc, p)
		bd.Assign(acc, s)
	}
	bd.FStore(acc, base, 32)
	bd.Ret()
	return bd.Func()
}

func TestDSAPipelineEliminatesViolations(t *testing.T) {
	f := dsaKernel(t)
	res, err := Compile(f, Options{
		File:            bankfile.DSA(1024),
		Method:          MethodBPC,
		Subgroups:       true,
		VerifySemantics: true,
		VerifyMemSize:   1 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.SubgroupViolations != 0 {
		t.Errorf("subgroup violations = %d, want 0", res.Report.SubgroupViolations)
	}
	if res.Report.StaticConflicts != 0 {
		t.Errorf("bank conflicts = %d, want 0 on the rich DSA file", res.Report.StaticConflicts)
	}
}

func TestCompileModuleAggregates(t *testing.T) {
	m := ir.NewModule("mod")
	m.Add(hotConflicts(t))
	f2 := dsaKernel(t)
	m.Add(f2)
	res, err := CompileModule(m, Options{File: bankfile.RV2(2), Method: MethodNon})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerFunc) != 2 {
		t.Fatalf("PerFunc = %d, want 2", len(res.PerFunc))
	}
	sum := 0
	for _, r := range res.PerFunc {
		sum += r.Report.StaticConflicts
	}
	if res.Totals.StaticConflicts != sum {
		t.Errorf("totals %d != sum %d", res.Totals.StaticConflicts, sum)
	}
}

func TestAblationFlagsRun(t *testing.T) {
	f := hotConflicts(t)
	for _, opts := range []Options{
		{File: bankfile.RV2(2), Method: MethodBPC, DisablePressure: true},
		{File: bankfile.RV2(2), Method: MethodBPC, DisableFreeHints: true},
		{File: bankfile.RV2(2), Method: MethodBPC, DisableSched: true},
		{File: bankfile.RV2(2), Method: MethodBPC, DisableCoalesce: true},
		{File: bankfile.RV2(2), Method: MethodBPC, THRES: 0.5},
	} {
		if _, err := Compile(f, opts); err != nil {
			t.Errorf("ablation %+v failed: %v", opts, err)
		}
	}
}

func TestLinearScanPipeline(t *testing.T) {
	f := hotConflicts(t)
	for _, m := range []Method{MethodNon, MethodBPC} {
		res, err := Compile(f, Options{
			File:            bankfile.RV2(2),
			Method:          m,
			LinearScan:      true,
			VerifySemantics: true,
			VerifyMemSize:   1 << 10,
		})
		if err != nil {
			t.Fatalf("linear scan %v: %v", m, err)
		}
		if res.Report.Instrs == 0 {
			t.Fatal("empty report")
		}
	}
	// bpc hints must not hurt under linear scan.
	get := func(m Method) int {
		res, err := Compile(f, Options{File: bankfile.RV2(2), Method: m, LinearScan: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.Report.StaticConflicts
	}
	if b, n := get(MethodBPC), get(MethodNon); b > n {
		t.Errorf("linear-scan bpc conflicts %d exceed non %d", b, n)
	}
	// Incompatible combinations are rejected.
	if _, err := Compile(f, Options{File: bankfile.DSA(1024), Method: MethodBPC, Subgroups: true, LinearScan: true}); err == nil {
		t.Error("linear scan + subgroups accepted")
	}
	if _, err := Compile(f, Options{File: bankfile.RV2(2), Method: MethodBCR, LinearScan: true}); err == nil {
		t.Error("linear scan + bcr accepted")
	}
}

func TestDeterministicCompile(t *testing.T) {
	f := hotConflicts(t)
	r1, err := Compile(f, Options{File: bankfile.RV2(2), Method: MethodBPC})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Compile(f, Options{File: bankfile.RV2(2), Method: MethodBPC})
	if err != nil {
		t.Fatal(err)
	}
	if ir.Print(r1.Func) != ir.Print(r2.Func) {
		t.Error("pipeline not deterministic")
	}
}
