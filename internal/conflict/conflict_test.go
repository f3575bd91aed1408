package conflict

import (
	"reflect"
	"testing"

	"prescount/internal/bankfile"
	"prescount/internal/ir"
)

// parse builds a function from textual MIR with physical registers.
func parse(t *testing.T, src string) *ir.Func {
	t.Helper()
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestPenaltyCounting(t *testing.T) {
	file := bankfile.RV2(2) // bank(r) = r % 2
	cases := []struct {
		src  string
		want int
	}{
		// f0 and f2 share bank 0: penalty 1.
		{"f4 = fadd f0, f2", 1},
		// f0 and f1 are in different banks: no penalty.
		{"f4 = fadd f0, f1", 0},
		// fma with three reads, two in bank 0 (f0, f2), one in bank 1: 1.
		{"f5 = fma f0, f2, f1", 1},
		// fma with all three in bank 0: penalty 2 (N-1 = 2).
		{"f5 = fma f0, f2, f4", 2},
		// single FP read: never a conflict.
		{"f5 = fneg f0", 0},
	}
	for _, c := range cases {
		f := parse(t, "func @t {\n entry:\n "+c.src+"\n ret\n}")
		in := f.Blocks[0].Instrs[0]
		if got := Penalty(in, file); got != c.want {
			t.Errorf("Penalty(%s) = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestPenaltyWithTwoReadPorts(t *testing.T) {
	file := bankfile.Config{NumRegs: 32, NumBanks: 2, NumSubgroups: 1, ReadPorts: 2}
	f := parse(t, "func @t {\n entry:\n f5 = fma f0, f2, f4\n ret\n}")
	if got := Penalty(f.Blocks[0].Instrs[0], file); got != 1 {
		t.Errorf("3 reads through 2 ports: penalty = %d, want 1", got)
	}
}

func TestAnalyzeCountsAndWeights(t *testing.T) {
	src := `func @t {
  entry:
    x1 = iconst 0
    br body
  body: !trip=50
    f0 = fload x1, 0
    f2 = fload x1, 1
    f4 = fadd f0, f2
    fstore f4, x1, 2
    x2 = icmplti x1, 1
    condbr x2, body, done
  done:
    ret
}`
	f := parse(t, src)
	r := Analyze(f, bankfile.RV2(2))
	if r.ConflictRelevant != 1 {
		t.Errorf("ConflictRelevant = %d, want 1", r.ConflictRelevant)
	}
	if r.StaticConflicts != 1 || r.ConflictInstrs != 1 {
		t.Errorf("StaticConflicts = %d / instrs %d, want 1/1", r.StaticConflicts, r.ConflictInstrs)
	}
	if r.WeightedConflicts != 50 {
		t.Errorf("WeightedConflicts = %g, want 50 (trip count)", r.WeightedConflicts)
	}
}

func TestSubgroupViolationDetection(t *testing.T) {
	// DSA file: bank = (r%8)/4, subgroup = r%4.
	file := bankfile.DSA(64)
	// I1 of Figure 7: vr1(0/1) + vr5(1/1) -> ok if dest aligned: f9 (0/1).
	okF := parse(t, "func @ok {\n entry:\n f9 = fadd f1, f5\n ret\n}")
	r := Analyze(okF, file)
	if r.SubgroupViolations != 0 {
		t.Errorf("aligned instruction flagged: %d violations", r.SubgroupViolations)
	}
	if r.StaticConflicts != 0 {
		t.Errorf("different-bank reads flagged as conflict: %d", r.StaticConflicts)
	}
	// I2 of Figure 7: f5(1/1) and f13(1/1) both bank 1: bank conflict.
	bankF := parse(t, "func @bank {\n entry:\n f9 = fadd f5, f13\n ret\n}")
	r = Analyze(bankF, file)
	if r.StaticConflicts != 1 {
		t.Errorf("same-bank reads: conflicts = %d, want 1", r.StaticConflicts)
	}
	// I3 of Figure 7: f9(0/1) and f10(0/2): subgroup violation (and same
	// bank).
	subF := parse(t, "func @sub {\n entry:\n f13 = fadd f9, f10\n ret\n}")
	r = Analyze(subF, file)
	if r.SubgroupViolations != 1 {
		t.Errorf("misaligned subgroups: violations = %d, want 1", r.SubgroupViolations)
	}
}

func TestSubgroupIgnoredWithoutSubgroups(t *testing.T) {
	f := parse(t, "func @t {\n entry:\n f4 = fadd f0, f2\n ret\n}")
	r := Analyze(f, bankfile.RV2(2))
	if r.SubgroupViolations != 0 {
		t.Errorf("non-subgroup file reported violations: %d", r.SubgroupViolations)
	}
}

func TestCopyAndSpillCounting(t *testing.T) {
	src := `func @t {
  entry:
    f0 = fconst 1
    f1 = fmov f0
    fspill f1, 0
    f2 = freload 0
    x1 = iconst 0
    fstore f2, x1, 0
    ret
}`
	f := parse(t, src)
	r := Analyze(f, bankfile.RV2(2))
	if r.Copies != 1 {
		t.Errorf("Copies = %d, want 1", r.Copies)
	}
	if r.SpillStores != 1 || r.SpillReloads != 1 {
		t.Errorf("spill counts = %d/%d, want 1/1", r.SpillStores, r.SpillReloads)
	}
}

func TestClassification(t *testing.T) {
	irrelevant := parse(t, "func @a {\n entry:\n f0 = fconst 1\n x1 = iconst 0\n fstore f0, x1, 0\n ret\n}")
	free := parse(t, "func @b {\n entry:\n f2 = fadd f0, f1\n ret\n}")
	conf := parse(t, "func @c {\n entry:\n f4 = fadd f0, f2\n ret\n}")
	file := bankfile.RV2(2)
	if got := Classify(Analyze(irrelevant, file)); got != Irrelevant {
		t.Errorf("irrelevant classified as %v", got)
	}
	if got := Classify(Analyze(free, file)); got != Free {
		t.Errorf("free classified as %v", got)
	}
	if got := Classify(Analyze(conf, file)); got != Conflicting {
		t.Errorf("conflicting classified as %v", got)
	}
	if Irrelevant.String() != "conflict-irrelevant" || Free.String() != "conflict-free" ||
		Conflicting.String() != "conflict" {
		t.Error("class names wrong")
	}
}

func TestVirtualOperandsHaveNoPenalty(t *testing.T) {
	bd := ir.NewBuilder("virt")
	base := bd.IConst(0)
	a := bd.FLoad(base, 0)
	b := bd.FLoad(base, 1)
	s := bd.FAdd(a, b)
	bd.FStore(s, base, 2)
	bd.Ret()
	f := bd.Func()
	r := Analyze(f, bankfile.RV2(2))
	if r.StaticConflicts != 0 {
		t.Errorf("virtual code has conflicts = %d, want 0", r.StaticConflicts)
	}
	if r.ConflictRelevant != 1 {
		t.Errorf("ConflictRelevant = %d, want 1 (property of the op)", r.ConflictRelevant)
	}
}

// TestReportAddSumsEveryField walks Report by reflection, fills
// every numeric field with a distinct value, and checks Report.Add
// accumulates each one — so a new Report field can never be silently
// dropped from module totals.
func TestReportAddSumsEveryField(t *testing.T) {
	src := &Report{}
	sv := reflect.ValueOf(src).Elem()
	for i := 0; i < sv.NumField(); i++ {
		field := sv.Field(i)
		switch field.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			field.SetInt(int64(i + 1))
		case reflect.Float32, reflect.Float64:
			field.SetFloat(float64(i) + 0.5)
		default:
			t.Fatalf("Report field %s has kind %s: teach Report.Add and this test about it",
				sv.Type().Field(i).Name, field.Kind())
		}
	}

	var dst Report
	dst.Add(src)
	dst.Add(src)

	dv := reflect.ValueOf(&dst).Elem()
	for i := 0; i < dv.NumField(); i++ {
		name := dv.Type().Field(i).Name
		switch dv.Field(i).Kind() {
		case reflect.Float32, reflect.Float64:
			if got, want := dv.Field(i).Float(), 2*sv.Field(i).Float(); got != want {
				t.Errorf("Report.Add dropped or mis-summed %s: got %v, want %v", name, got, want)
			}
		default:
			if got, want := dv.Field(i).Int(), 2*sv.Field(i).Int(); got != want {
				t.Errorf("Report.Add dropped or mis-summed %s: got %v, want %v", name, got, want)
			}
		}
	}
}
