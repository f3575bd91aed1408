package regalloc

import (
	"testing"

	"prescount/internal/bankfile"
	"prescount/internal/ir"
	"prescount/internal/tv"
)

// The translation validator as a differential oracle over the
// standalone allocators: where the *PreservesSemantics tests compare one
// concrete simulation checksum, tv.Check proves value equivalence over
// all paths of the same (input, allocated) pairs — a second, independent
// oracle with no shared machinery (sim executes, tv symbolically
// interprets).

// loopPressure is the loop-carried overpressure generator the
// control-flow differential tests use: n values live around a loop that
// folds them into an accumulator.
func loopPressure(n int) *ir.Func {
	bd := ir.NewBuilder("loopy")
	base := bd.IConst(0)
	for i := 0; i < 16; i++ {
		c := bd.FConst(float64(i) + 1)
		bd.FStore(c, base, int64(i))
	}
	var vals []ir.Reg
	for i := 0; i < n; i++ {
		vals = append(vals, bd.FLoad(base, int64(i%16)))
	}
	sum := bd.FConst(0)
	bd.Loop(6, 1, func(ir.Reg) {
		for _, v := range vals {
			s := bd.FAdd(sum, v)
			bd.Assign(sum, s)
		}
	})
	bd.FStore(sum, base, 20)
	bd.Ret()
	return bd.Func()
}

func TestBinpackTranslationValidates(t *testing.T) {
	file := bankfile.RV2(2)
	for _, mk := range []func(int) *ir.Func{widePressure, loopPressure} {
		for _, n := range []int{8, 40, 64, 100} {
			orig := mk(n)
			work := orig.Clone()
			_, af := runBinpack(t, work, file)
			if err := tv.Check(orig, af, file.NumRegs); err != nil {
				t.Errorf("%s n=%d: %v", orig.Name, n, err)
			}
		}
	}
}

func TestColoringTranslationValidates(t *testing.T) {
	file := bankfile.RV2(2)
	for _, mk := range []func(int) *ir.Func{widePressure, loopPressure} {
		for _, n := range []int{8, 40, 64, 100} {
			orig := mk(n)
			work := orig.Clone()
			_, af := colorWithBudget(t, work, file, coloringBudget)
			if err := tv.Check(orig, af, file.NumRegs); err != nil {
				t.Errorf("%s n=%d: %v", orig.Name, n, err)
			}
		}
	}
}

func TestLinearScanTranslationValidates(t *testing.T) {
	file := bankfile.RV2(2)
	for _, m := range []Method{MethodNon, MethodBPC} {
		for _, mk := range []func(int) *ir.Func{widePressure, loopPressure} {
			for _, n := range []int{8, 40, 64, 100} {
				orig := mk(n)
				work := orig.Clone()
				_, af := runLinear(t, work, file, m)
				if err := tv.Check(orig, af, file.NumRegs); err != nil {
					t.Errorf("%v %s n=%d: %v", m, orig.Name, n, err)
				}
			}
		}
	}
}
