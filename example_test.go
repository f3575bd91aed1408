package prescount_test

import (
	"fmt"

	"prescount"
)

// Example demonstrates the minimal compile loop: build a kernel, run the
// PresCount pipeline, inspect the conflict report.
func Example() {
	b := prescount.NewBuilder("axpy")
	base := b.IConst(0)
	x := b.FLoad(base, 0)
	y := b.FLoad(base, 1)
	s := b.FAdd(x, y)
	b.FStore(s, base, 2)
	b.Ret()

	res, err := prescount.Compile(b.Func(), prescount.Options{
		File:   prescount.RV2(2),
		Method: prescount.MethodBPC,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("conflict-relevant:", res.Report.ConflictRelevant)
	fmt.Println("static conflicts:", res.Report.StaticConflicts)
	// Output:
	// conflict-relevant: 1
	// static conflicts: 0
}

// Example_portfolio races bpc, brc, binpack and coloring on the axpy
// kernel and keeps the cheapest result; Result.Method names the winner.
func Example_portfolio() {
	b := prescount.NewBuilder("axpy")
	base := b.IConst(0)
	x := b.FLoad(base, 0)
	y := b.FLoad(base, 1)
	s := b.FAdd(x, y)
	b.FStore(s, base, 2)
	b.Ret()

	res, err := prescount.Compile(b.Func(), prescount.Options{
		File:   prescount.RV2(2),
		Method: prescount.MethodPortfolio,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("winner:", res.Method)
	fmt.Println("static conflicts:", res.Report.StaticConflicts)
	// Output:
	// winner: bpc
	// static conflicts: 0
}

// ExampleParse shows the textual MIR round trip.
func ExampleParse() {
	src := `func @tiny {
  entry:
    f2 = fadd f0, f1
    ret
}`
	f, err := prescount.Parse(src)
	if err != nil {
		panic(err)
	}
	r := prescount.Analyze(f, prescount.RV2(2))
	fmt.Println("conflicts:", r.StaticConflicts) // f0 and f1 sit in different banks
	// Output:
	// conflicts: 0
}

// ExampleSimulate executes allocated code and reads back memory.
func ExampleSimulate() {
	b := prescount.NewBuilder("store7")
	base := b.IConst(0)
	v := b.FConst(7)
	b.FStore(v, base, 3)
	b.Ret()

	res, err := prescount.Compile(b.Func(), prescount.Options{
		File:   prescount.RV2(2),
		Method: prescount.MethodNon,
	})
	if err != nil {
		panic(err)
	}
	sr, err := prescount.Simulate(res.Func, prescount.SimOptions{
		File:    prescount.RV2(2),
		MemSize: 16,
		KeepMem: true,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("mem[3] =", sr.Mem[3])
	// Output:
	// mem[3] = 7
}

// ExampleRegisterFile shows the DSA bank-subgroup numbering of Figure 6.
func ExampleRegisterFile() {
	dsa := prescount.DSA(1024)
	for _, r := range []int{1, 5, 9, 10, 13} {
		fmt.Printf("vr%d: bank %d, subgroup %d\n", r, dsa.Bank(r), dsa.Subgroup(r))
	}
	// Output:
	// vr1: bank 0, subgroup 1
	// vr5: bank 1, subgroup 1
	// vr9: bank 0, subgroup 1
	// vr10: bank 0, subgroup 2
	// vr13: bank 1, subgroup 1
}
