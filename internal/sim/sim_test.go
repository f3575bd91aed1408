package sim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"prescount/internal/bankfile"
	"prescount/internal/ir"
)

func run(t *testing.T, f *ir.Func, opts Options) *Result {
	t.Helper()
	r, err := Run(f, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return r
}

func TestArithmeticSemantics(t *testing.T) {
	// Compute (3+4)*2 - 1 = 13 into mem[0] and min/max/neg/div/fma checks.
	bd := ir.NewBuilder("arith")
	base := bd.IConst(0)
	three := bd.FConst(3)
	four := bd.FConst(4)
	two := bd.FConst(2)
	one := bd.FConst(1)
	s := bd.FAdd(three, four)
	p := bd.FMul(s, two)
	d := bd.FSub(p, one)
	bd.FStore(d, base, 0)
	bd.FStore(bd.FMin(three, four), base, 1)
	bd.FStore(bd.FMax(three, four), base, 2)
	bd.FStore(bd.FNeg(three), base, 3)
	bd.FStore(bd.FDiv(four, two), base, 4)
	bd.FStore(bd.FMA(three, four, one), base, 5)
	bd.Ret()
	f := bd.Func()
	r := run(t, f, Options{MemSize: 64, KeepMem: true})
	want := []float64{13, 3, 4, -3, 2, 13}
	for i, w := range want {
		if r.Mem[i] != w {
			t.Errorf("mem[%d] = %g, want %g", i, r.Mem[i], w)
		}
	}
}

func TestLoopExecutesTripCountTimes(t *testing.T) {
	// Sum 0..9 into mem[0]: 45.
	bd := ir.NewBuilder("sum")
	base := bd.IConst(0)
	acc := bd.FConst(0)
	one := bd.FConst(1)
	cnt := bd.FConst(0)
	_ = one
	bd.Loop(10, 1, func(i ir.Reg) {
		next := bd.FAdd(acc, cnt)
		bd.Assign(acc, next)
		c2 := bd.FAdd(cnt, one)
		bd.Assign(cnt, c2)
	})
	bd.FStore(acc, base, 0)
	bd.Ret()
	f := bd.Func()
	r := run(t, f, Options{MemSize: 16, KeepMem: true})
	if r.Mem[0] != 45 {
		t.Errorf("sum = %g, want 45", r.Mem[0])
	}
}

func TestDynamicConflictsCountExecutions(t *testing.T) {
	// A conflicting fadd (f0, f2 share bank 0 under 2 banks) inside a
	// 20-iteration loop: 20 dynamic conflict instances.
	src := `func @dyn {
  entry:
    x1 = iconst 0
    x2 = iconst 0
    f0 = fconst 1
    f2 = fconst 2
    br body
  body: !trip=20
    f4 = fadd f0, f2
    x2 = iaddi x2, 1
    x3 = icmplti x2, 20
    condbr x3, body, done
  done:
    fstore f4, x1, 0
    ret
}`
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r := run(t, f, Options{File: bankfile.RV2(2), MemSize: 16})
	if r.DynamicConflicts != 20 {
		t.Errorf("DynamicConflicts = %d, want 20", r.DynamicConflicts)
	}
	if r.ConflictInstances != 20 {
		t.Errorf("ConflictInstances = %d, want 20", r.ConflictInstances)
	}
	// Cycles: steps + one penalty cycle per conflict.
	if r.Cycles != r.Steps+20 {
		t.Errorf("Cycles = %d, want steps %d + 20", r.Cycles, r.Steps)
	}
}

func TestNoConflictsOnVirtualCode(t *testing.T) {
	bd := ir.NewBuilder("virt")
	base := bd.IConst(0)
	a := bd.FConst(1)
	b := bd.FConst(2)
	s := bd.FAdd(a, b)
	bd.FStore(s, base, 0)
	bd.Ret()
	r := run(t, bd.Func(), Options{File: bankfile.RV2(2), MemSize: 16})
	if r.DynamicConflicts != 0 {
		t.Errorf("virtual code has %d conflicts", r.DynamicConflicts)
	}
}

func TestSpillSemantics(t *testing.T) {
	src := `func @sp {
  entry:
    x1 = iconst 0
    x5 = iconst 7
    ispill x5, 1
    f0 = fconst 42
    fspill f0, 0
    f1 = fconst 0
    f2 = freload 0
    x6 = ireload 1
    fstore f2, x6, 0
    ret
}`
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r := run(t, f, Options{MemSize: 16, KeepMem: true})
	if r.Mem[7] != 42 {
		t.Errorf("mem[7] = %g, want 42 via spill slots", r.Mem[7])
	}
}

func TestOutOfRangeAccessFails(t *testing.T) {
	bd := ir.NewBuilder("oob")
	base := bd.IConst(1000)
	v := bd.FConst(1)
	bd.FStore(v, base, 0)
	bd.Ret()
	if _, err := Run(bd.Func(), Options{MemSize: 16}); err == nil {
		t.Error("out-of-range store accepted")
	}
}

func TestMaxStepsGuard(t *testing.T) {
	// Infinite loop must hit the step guard.
	src := `func @inf {
  entry:
    br entry
}`
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(f, Options{MaxSteps: 1000, MemSize: 16}); err == nil {
		t.Error("infinite loop terminated without error")
	}
}

// checksumBytewise is checksum as its definition states it: 64-bit
// FNV-1a over every element's little-endian bit pattern.
func checksumBytewise(mem []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range mem {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestChecksumMatchesBytewise pins the zero-element shortcut to the
// byte-wise FNV-1a over random sparse memories, an all-zero memory, a
// memory with no zeros and the empty one. Negative zero is not a zero bit
// pattern and must take the byte-wise path.
func TestChecksumMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mems := [][]float64{nil, make([]float64, 4096)}
	dense := make([]float64, 4096)
	for i := range dense {
		dense[i] = 1 + rng.Float64()
	}
	mems = append(mems, dense)
	for _, nonzero := range []float64{0.001, 0.01, 0.1, 0.5} {
		mem := make([]float64, 1+rng.Intn(8192))
		for i := range mem {
			if rng.Float64() < nonzero {
				mem[i] = []float64{rng.NormFloat64(), math.Copysign(0, -1), math.Inf(1), 1}[rng.Intn(4)]
			}
		}
		mems = append(mems, mem)
	}
	for i, mem := range mems {
		if got, want := checksum(mem), checksumBytewise(mem); got != want {
			t.Errorf("memory %d (%d elements): checksum %#x, byte-wise FNV-1a %#x", i, len(mem), got, want)
		}
	}
}

func TestChecksumDistinguishesResults(t *testing.T) {
	mk := func(v float64) *ir.Func {
		bd := ir.NewBuilder("ck")
		base := bd.IConst(0)
		c := bd.FConst(v)
		bd.FStore(c, base, 0)
		bd.Ret()
		return bd.Func()
	}
	r1 := run(t, mk(1), Options{MemSize: 64})
	r2 := run(t, mk(2), Options{MemSize: 64})
	r3 := run(t, mk(1), Options{MemSize: 64})
	if r1.MemChecksum == r2.MemChecksum {
		t.Error("different results share a checksum")
	}
	if r1.MemChecksum != r3.MemChecksum {
		t.Error("identical results differ in checksum")
	}
}

func TestVLIWBundling(t *testing.T) {
	// Two independent fadds on disjoint banks can dual-issue; the same two
	// instructions with a shared bank cannot.
	indep := `func @a {
  entry:
    f4 = fadd f0, f1
    f5 = fadd f2, f3
    ret
}`
	// f4/f6 defs in bank 0... choose regs so banks collide between the two
	// instructions: all even regs are bank 0 under 2 banks.
	shared := `func @b {
  entry:
    f4 = fadd f0, f1
    f6 = fadd f2, f3
    ret
}`
	file := bankfile.RV2(2)
	fa, err := ir.Parse(indep)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := ir.Parse(shared)
	if err != nil {
		t.Fatal(err)
	}
	ra := run(t, fa, Options{File: file, VLIW: true, MemSize: 16})
	rb := run(t, fb, Options{File: file, VLIW: true, MemSize: 16})
	// indep: f4 = f0+f1 banks {0,1} (def f4 bank 0)... f5 = f2+f3 banks
	// {0,1, f5 bank 1}: banks intersect -> no bundling either. Instead
	// verify the bundling primitive directly.
	_ = ra
	_ = rb

	// Under 4 banks: in1 touches banks {0 (f0, f4), 1 (f1)}; in2 touches
	// banks {2 (f2, f6), 3 (f3)}: disjoint, so they bundle.
	in1 := &ir.Instr{Op: ir.OpFAdd, Defs: []ir.Reg{ir.FReg(4)}, Uses: []ir.Reg{ir.FReg(0), ir.FReg(1)}}
	in2 := &ir.Instr{Op: ir.OpFAdd, Defs: []ir.Reg{ir.FReg(6)}, Uses: []ir.Reg{ir.FReg(2), ir.FReg(3)}}
	file4 := bankfile.RV1(4)
	bs := bundle([]*ir.Instr{in1, in2}, file4, 2)
	if len(bs) != 1 {
		t.Errorf("disjoint-bank instructions did not bundle: %d bundles", len(bs))
	}
	// in3 touches banks {0 (f8), 1 (f9), 2 (f6 def)}: bank 0 collides with
	// in1's f0/f4.
	in3 := &ir.Instr{Op: ir.OpFAdd, Defs: []ir.Reg{ir.FReg(6)}, Uses: []ir.Reg{ir.FReg(8), ir.FReg(9)}}
	bs = bundle([]*ir.Instr{in1, in3}, file4, 2)
	if len(bs) != 2 {
		t.Errorf("same-bank instructions bundled: %d bundles", len(bs))
	}
	// Data dependence blocks bundling.
	in4 := &ir.Instr{Op: ir.OpFMul, Defs: []ir.Reg{ir.FReg(9)}, Uses: []ir.Reg{ir.FReg(4), ir.FReg(3)}}
	bs = bundle([]*ir.Instr{in1, in4}, file4, 2)
	if len(bs) != 2 {
		t.Errorf("dependent instructions bundled: %d bundles", len(bs))
	}
}

func TestVLIWReducesCycles(t *testing.T) {
	// Long sequence of independent ops across disjoint banks: VLIW cycles
	// must be lower than scalar cycles.
	bd := ir.NewBuilder("wide")
	base := bd.IConst(0)
	var outs []ir.Reg
	for i := 0; i < 16; i++ {
		v := bd.FConst(float64(i))
		w := bd.FConst(float64(i + 1))
		outs = append(outs, bd.FAdd(v, w))
	}
	sum := outs[0]
	for _, o := range outs[1:] {
		sum = bd.FAdd(sum, o)
	}
	bd.FStore(sum, base, 0)
	bd.Ret()
	f := bd.Func()
	// Virtual registers: no banks -> every pair bundles unless dependent.
	scalar := run(t, f, Options{MemSize: 16})
	vliw := run(t, f, Options{MemSize: 16, VLIW: true})
	if vliw.Cycles >= scalar.Cycles {
		t.Errorf("VLIW cycles %d not below scalar %d", vliw.Cycles, scalar.Cycles)
	}
	if vliw.MemChecksum != scalar.MemChecksum {
		t.Error("VLIW changed semantics")
	}
}

func TestDeterministicExecution(t *testing.T) {
	bd := ir.NewBuilder("det")
	base := bd.IConst(0)
	acc := bd.FConst(1)
	bd.Loop(50, 1, func(ir.Reg) {
		h := bd.FConst(1.0001)
		v := bd.FMul(acc, h)
		bd.Assign(acc, v)
	})
	bd.FStore(acc, base, 0)
	bd.Ret()
	f := bd.Func()
	r1 := run(t, f, Options{MemSize: 16})
	r2 := run(t, f, Options{MemSize: 16})
	if r1.MemChecksum != r2.MemChecksum || r1.Cycles != r2.Cycles {
		t.Error("nondeterministic simulation")
	}
}

func TestTraceOutput(t *testing.T) {
	bd := ir.NewBuilder("trace")
	base := bd.IConst(0)
	v := bd.FConst(1)
	bd.FStore(v, base, 0)
	bd.Ret()
	f := bd.Func()
	var buf strings.Builder
	r := run(t, f, Options{MemSize: 16, Trace: &buf})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if int64(len(lines)) != r.Steps {
		t.Fatalf("trace lines = %d, steps = %d", len(lines), r.Steps)
	}
	if !strings.Contains(lines[0], "iconst") {
		t.Errorf("first trace line = %q, want iconst", lines[0])
	}
}

func TestTraceMarksConflicts(t *testing.T) {
	src := `func @t {
  entry:
    f4 = fadd f0, f2
    ret
}`
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	run(t, f, Options{MemSize: 16, File: bankfile.RV2(2), Trace: &buf})
	if !strings.Contains(buf.String(), "!conflict=1") {
		t.Errorf("conflict not marked in trace:\n%s", buf.String())
	}
}

func TestCallClobbersCallerSaved(t *testing.T) {
	// A value parked in a caller-saved register across a call is destroyed
	// (canary); in a callee-saved register it survives.
	src := `func @clob {
  entry:
    x30 = iconst 0
    f0 = fconst 5
    f31 = fconst 7
    call
    fstore f0, x30, 0
    fstore f31, x30, 1
    ret
}`
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r := run(t, f, Options{File: bankfile.RV2(2), MemSize: 16, KeepMem: true})
	if r.Mem[0] == 5 {
		t.Error("caller-saved f0 survived a call; clobbering not modeled")
	}
	if r.Mem[1] != 7 {
		t.Errorf("callee-saved f31 = %g, want 7", r.Mem[1])
	}
}

func TestCallNoClobberOnVirtualCode(t *testing.T) {
	bd := ir.NewBuilder("virtcall")
	base := bd.IConst(0)
	v := bd.FConst(9)
	bd.Call()
	bd.FStore(v, base, 0)
	bd.Ret()
	r := run(t, bd.Func(), Options{MemSize: 16, KeepMem: true})
	if r.Mem[0] != 9 {
		t.Errorf("virtual registers must not be clobbered by calls: %g", r.Mem[0])
	}
}

func TestVLIWWiderBundles(t *testing.T) {
	// Width-3 bundling packs three independent virtual-register ops.
	ins := []*ir.Instr{
		{Op: ir.OpFConst, Defs: []ir.Reg{ir.VReg(0)}, FImm: 1},
		{Op: ir.OpFConst, Defs: []ir.Reg{ir.VReg(1)}, FImm: 2},
		{Op: ir.OpFConst, Defs: []ir.Reg{ir.VReg(2)}, FImm: 3},
	}
	bs := bundle(ins, bankfile.Config{}, 3)
	if len(bs) != 1 {
		t.Errorf("width-3 bundle count = %d, want 1", len(bs))
	}
	bs = bundle(ins, bankfile.Config{}, 2)
	if len(bs) != 2 {
		t.Errorf("width-2 bundle count = %d, want 2", len(bs))
	}
}

func TestCallsNeverBundle(t *testing.T) {
	ins := []*ir.Instr{
		{Op: ir.OpFConst, Defs: []ir.Reg{ir.VReg(0)}, FImm: 1},
		{Op: ir.OpCall},
		{Op: ir.OpFConst, Defs: []ir.Reg{ir.VReg(1)}, FImm: 2},
	}
	bs := bundle(ins, bankfile.Config{}, 2)
	if len(bs) != 3 {
		t.Errorf("call bundled: %d bundles, want 3", len(bs))
	}
}

func TestConflictInstancesVsPenalty(t *testing.T) {
	// An fma with all three reads in one bank is ONE instance with penalty
	// 2 per execution.
	src := `func @pen {
  entry:
    f5 = fma f0, f2, f4
    ret
}`
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r := run(t, f, Options{File: bankfile.RV2(2), MemSize: 16})
	if r.ConflictInstances != 1 || r.DynamicConflicts != 2 {
		t.Errorf("instances=%d penalty=%d, want 1/2", r.ConflictInstances, r.DynamicConflicts)
	}
}

// TestPhysicalAndVirtualRegistersDoNotAlias pins that the register files
// keep physical and virtual registers apart. %0, %2 and x0, x1, x2 (GPR)
// and %1:fp and f1 (FP) collide under any one-table numbering — by class
// index or by register id — yet hold different values, and every value
// reaches memory intact.
func TestPhysicalAndVirtualRegistersDoNotAlias(t *testing.T) {
	src := `func @alias {
  entry:
    x0 = iconst 8
    x1 = iconst 4
    x2 = iconst 24
    %0 = iconst 0
    %1:fp = fconst 1.5
    %2 = iconst 16
    f1 = fconst 2.5
    fstore %1, %0, 0
    fstore f1, %0, 1
    fstore %1, x0, 0
    fstore f1, x1, 0
    fstore f1, %2, 0
    fstore %1, x2, 0
    ret
}`
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r := run(t, f, Options{File: bankfile.RV2(2), MemSize: 32, KeepMem: true})
	for addr, want := range map[int]float64{0: 1.5, 1: 2.5, 4: 2.5, 8: 1.5, 16: 2.5, 24: 1.5} {
		if r.Mem[addr] != want {
			t.Errorf("mem[%d] = %g, want %g", addr, r.Mem[addr], want)
		}
	}
}
