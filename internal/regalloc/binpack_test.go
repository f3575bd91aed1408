package regalloc

import (
	"testing"

	"prescount/internal/bankfile"
	"prescount/internal/ir"
	"prescount/internal/sim"
	"prescount/internal/tv"
)

func runBinpack(t *testing.T, f *ir.Func, cfgFile bankfile.Config) (*Result, *ir.Func) {
	t.Helper()
	r, err := RunBinpack(f, Options{Cfg: cfgFile, Method: MethodBinpack})
	if err != nil {
		t.Fatalf("RunBinpack: %v", err)
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	allPhysical(t, f)
	return r, f
}

func TestBinpackAllocates(t *testing.T) {
	res, _ := runBinpack(t, widePressure(8), bankfile.RV2(2))
	if res.SpilledVRegs != 0 {
		t.Errorf("unexpected spills %d", res.SpilledVRegs)
	}
}

func TestBinpackPreservesSemantics(t *testing.T) {
	for _, n := range []int{8, 30, 40, 64, 100} {
		orig := widePressure(n)
		ref, err := sim.Run(orig, sim.Options{MemSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		work := orig.Clone()
		_, af := runBinpack(t, work, bankfile.RV2(2))
		got, err := sim.Run(af, sim.Options{MemSize: 64, File: bankfile.RV2(2)})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.MemChecksum != ref.MemChecksum {
			t.Errorf("n=%d: binpacking changed semantics", n)
		}
	}
}

func TestBinpackSecondChanceUnderPressure(t *testing.T) {
	// 64 long-lived values in a 32-register file: the packer must evict
	// and the evicted remainders must either be rescued or go piecewise.
	res, f := runBinpack(t, widePressure(64), bankfile.RV2(2))
	if res.SpilledVRegs == 0 {
		t.Fatal("expected piecewise registers under 2x overpressure")
	}
	if res.SpillStores == 0 || res.SpillReloads == 0 {
		t.Error("piecewise registers emitted no spill code")
	}
	found := false
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpFReload {
				found = true
			}
		}
	}
	if !found {
		t.Error("no reload instructions emitted")
	}
}

// rescueMIR makes binpack's second chance fire on a 5-register, 1-bank
// file. Six values live at once up front (%4..%9, equal weights, so none
// evicts another) force the repack that reserves three FP scratch
// registers, leaving two bins. Then %1 loads, %2 loads while %1 is live,
// %1 is stored, %3 loads, and %1 is loaded again while %3 is live: %1's
// live range has a hole. %2 is the heaviest and %3 outweighs %1, so %3
// evicts %1 at %3's start, and %1's remainder (its second segment) is
// requeued. %2 dies before that segment starts, so the remainder finds
// %2's bin free: a rescue.
const rescueMIR = `func @rescue {
 entry:
  %0:gpr = iconst 0
  %4:fp = fload %0, 0
  %5:fp = fload %0, 1
  %6:fp = fload %0, 2
  %7:fp = fload %0, 3
  %8:fp = fload %0, 4
  %9:fp = fload %0, 5
  fstore %4, %0, 10
  fstore %5, %0, 11
  fstore %6, %0, 12
  fstore %7, %0, 13
  fstore %8, %0, 14
  fstore %9, %0, 15
  %1:fp = fload %0, 0
  %2:fp = fload %0, 1
  fstore %2, %0, 16
  fstore %2, %0, 17
  fstore %1, %0, 18
  %3:fp = fload %0, 2
  fstore %2, %0, 19
  fstore %3, %0, 20
  fstore %2, %0, 21
  %1:fp = fload %0, 3
  fstore %3, %0, 22
  fstore %3, %0, 23
  fstore %1, %0, 24
  fstore %3, %0, 25
  ret
}
`

// TestBinpackRescueFires shows the rescue path is reachable: an evicted
// remainder is re-placed into another register, and the rewrite stays
// correct under both oracles (a concrete simulation and the translation
// validator).
func TestBinpackRescueFires(t *testing.T) {
	orig, err := ir.Parse(rescueMIR)
	if err != nil {
		t.Fatal(err)
	}
	file := bankfile.Config{NumRegs: 5, NumBanks: 1, NumSubgroups: 1, ReadPorts: 1}
	res, af := runBinpack(t, orig.Clone(), file)
	if res.Rescues < 1 {
		t.Fatalf("Rescues = %d (Evictions %d), want at least one", res.Rescues, res.Evictions)
	}
	ref, err := sim.Run(orig, sim.Options{MemSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.Run(af, sim.Options{MemSize: 64, File: file})
	if err != nil {
		t.Fatal(err)
	}
	if got.MemChecksum != ref.MemChecksum {
		t.Error("a rescued remainder changed semantics")
	}
	if err := tv.Check(orig, af, file.NumRegs); err != nil {
		t.Errorf("translation validation: %v", err)
	}
}

func TestBinpackDeterministic(t *testing.T) {
	f1 := widePressure(64)
	f2 := widePressure(64)
	runBinpack(t, f1, bankfile.RV2(2))
	runBinpack(t, f2, bankfile.RV2(2))
	if ir.Print(f1) != ir.Print(f2) {
		t.Error("binpacking not deterministic")
	}
}

func TestBinpackControlFlow(t *testing.T) {
	// Loop-carried values under overpressure: the per-block reload
	// discipline must keep back edges correct.
	for _, n := range []int{8, 40, 64} {
		orig := loopPressure(n)
		ref, err := sim.Run(orig, sim.Options{MemSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		work := orig.Clone()
		_, af := runBinpack(t, work, bankfile.RV2(2))
		got, err := sim.Run(af, sim.Options{MemSize: 64, File: bankfile.RV2(2)})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.MemChecksum != ref.MemChecksum {
			t.Errorf("n=%d: binpacking broke loop-carried values", n)
		}
	}
}

func TestBinpackTooSmallFile(t *testing.T) {
	// A file this small cannot host the scratch set once anything spills.
	_, err := RunBinpack(widePressure(40), Options{
		Cfg: bankfile.Config{NumRegs: 2, NumBanks: 2, NumSubgroups: 1, ReadPorts: 1},
	})
	if err == nil {
		t.Fatal("accepted a file smaller than the scratch set under pressure")
	}
}
