package liveness

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"prescount/internal/cfg"
	"prescount/internal/ir"
	"prescount/internal/workload"
)

func TestIntervalAddMergesSegments(t *testing.T) {
	iv := &Interval{}
	iv.Add(10, 20)
	iv.Add(30, 40)
	iv.Add(15, 35) // bridges both
	if len(iv.Segments) != 1 {
		t.Fatalf("segments = %v, want one merged", iv.Segments)
	}
	if iv.Segments[0] != (Segment{10, 40}) {
		t.Errorf("merged = %v, want [10,40)", iv.Segments[0])
	}
}

func TestIntervalAddKeepsDisjoint(t *testing.T) {
	iv := &Interval{}
	iv.Add(10, 12)
	iv.Add(20, 22)
	iv.Add(0, 2)
	want := []Segment{{0, 2}, {10, 12}, {20, 22}}
	if len(iv.Segments) != 3 {
		t.Fatalf("segments = %v", iv.Segments)
	}
	for i, s := range want {
		if iv.Segments[i] != s {
			t.Errorf("segment %d = %v, want %v", i, iv.Segments[i], s)
		}
	}
	if iv.Size() != 6 {
		t.Errorf("Size = %d, want 6", iv.Size())
	}
	if iv.Start() != 0 || iv.End() != 22 {
		t.Errorf("Start/End = %d/%d, want 0/22", iv.Start(), iv.End())
	}
}

func TestIntervalAddEmptyIgnored(t *testing.T) {
	iv := &Interval{}
	iv.Add(5, 5)
	iv.Add(7, 3)
	if !iv.Empty() {
		t.Errorf("empty adds produced segments: %v", iv.Segments)
	}
}

func TestIntervalCovers(t *testing.T) {
	iv := &Interval{}
	iv.Add(2, 5)
	iv.Add(8, 10)
	for _, c := range []struct {
		at   int
		want bool
	}{{1, false}, {2, true}, {4, true}, {5, false}, {7, false}, {8, true}, {9, true}, {10, false}} {
		if got := iv.Covers(c.at); got != c.want {
			t.Errorf("Covers(%d) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestIntervalOverlap(t *testing.T) {
	a := &Interval{}
	a.Add(0, 10)
	a.Add(20, 30)
	b := &Interval{}
	b.Add(10, 20)
	if a.Overlaps(b) {
		t.Error("touching intervals must not overlap (half-open)")
	}
	b.Add(25, 26)
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("overlap must be detected symmetrically")
	}
	if !a.OverlapsSegment(5, 6) || a.OverlapsSegment(10, 20) {
		t.Error("OverlapsSegment wrong")
	}
}

// quick-check: Interval.Add maintains sorted, disjoint, coalesced segments
// and coverage equals the union of all inserted ranges.
func TestIntervalInvariantsQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		iv := &Interval{}
		covered := map[int]bool{}
		for k := 0; k < 40; k++ {
			s := rng.Intn(200)
			e := s + rng.Intn(30)
			iv.Add(s, e)
			for i := s; i < e; i++ {
				covered[i] = true
			}
		}
		// Invariant 1: sorted, disjoint, coalesced.
		for i := 1; i < len(iv.Segments); i++ {
			if iv.Segments[i-1].End >= iv.Segments[i].Start {
				return false
			}
		}
		// Invariant 2: exact coverage.
		for i := 0; i < 240; i++ {
			if iv.Covers(i) != covered[i] {
				return false
			}
		}
		// Invariant 3: size equals covered cardinality.
		return iv.Size() == len(covered)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// quick-check: Overlaps agrees with brute-force slot comparison.
func TestOverlapAgreesWithBruteForceQuick(t *testing.T) {
	gen := func(rng *rand.Rand) *Interval {
		iv := &Interval{}
		for k := 0; k < 6; k++ {
			s := rng.Intn(100)
			iv.Add(s, s+rng.Intn(12))
		}
		return iv
	}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := gen(rng), gen(rng)
		brute := false
		for i := 0; i < 120 && !brute; i++ {
			brute = a.Covers(i) && b.Covers(i)
		}
		return a.Overlaps(b) == brute && b.Overlaps(a) == brute
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestUnionConflicts(t *testing.T) {
	u := NewUnion()
	a := &Interval{}
	a.Add(0, 10)
	b := &Interval{}
	b.Add(20, 30)
	u.Insert(ir.VReg(0), a)
	u.Insert(ir.VReg(1), b)

	probe := &Interval{}
	probe.Add(5, 25)
	owners := u.ConflictsWith(probe)
	if len(owners) != 2 {
		t.Fatalf("conflicts = %v, want both", owners)
	}
	u.Remove(ir.VReg(0))
	if u.Len() != 1 {
		t.Errorf("Len = %d after Remove, want 1", u.Len())
	}
	probe2 := &Interval{}
	probe2.Add(10, 20)
	if u.HasConflict(probe2) {
		t.Error("gap probe must not conflict")
	}
}

func compute(t *testing.T, f *ir.Func) (*Info, *cfg.Info) {
	t.Helper()
	cf := cfg.Compute(f)
	return Compute(f, cf), cf
}

func TestStraightLineIntervals(t *testing.T) {
	b := ir.NewBuilder("straight")
	v0 := b.FConst(1) // slot 0/1: def at 1
	v1 := b.FConst(2) // slot 2/3: def at 3
	v2 := b.FAdd(v0, v1)
	base := b.IConst(0)
	b.FStore(v2, base, 0)
	b.Ret()
	f := b.Func()
	lv, _ := compute(t, f)

	i0 := lv.IntervalOf(v0)
	// v0 defined by instr 0 (write slot 1), last used by instr 2 (read slot
	// 4): live [1, 5).
	if i0.Start() != 1 || i0.End() != 5 {
		t.Errorf("v0 interval = %v, want [1,5)", i0)
	}
	i2 := lv.IntervalOf(v2)
	// v2 defined at instr 2 (write slot 5), used by fstore instr 4 (read
	// slot 8): live [5, 9).
	if i2.Start() != 5 || i2.End() != 9 {
		t.Errorf("v2 interval = %v, want [5,9)", i2)
	}
	// Def of v2 and uses of v0/v1 at the same instruction must not overlap
	// ... v0 ends at 5 (exclusive) where v2 starts.
	if i0.Overlaps(i2) {
		t.Error("use and def of the same instruction must not interfere")
	}
}

func TestLoopCarriedLiveness(t *testing.T) {
	b := ir.NewBuilder("loopcarried")
	acc := b.FConst(0)
	b.Loop(10, 1, func(i ir.Reg) {
		one := b.FConst(1)
		next := b.FAdd(acc, one)
		b.Assign(acc, next)
	})
	base := b.IConst(0)
	b.FStore(acc, base, 0)
	b.Ret()
	f := b.Func()
	lv, _ := compute(t, f)

	loop := f.Blocks[1]
	if !lv.LiveIn[loop.ID].Has(acc) || !lv.LiveOut[loop.ID].Has(acc) {
		t.Error("accumulator must be live-in and live-out of the loop")
	}
	iv := lv.IntervalOf(acc)
	ls, le := lv.BlockRange(loop)
	// acc is live across the whole loop body.
	if !iv.OverlapsSegment(ls, le) {
		t.Error("accumulator interval must cover the loop")
	}
	if iv.NumUses < 3 {
		t.Errorf("acc NumUses = %d, want >= 3 (def, use, redef, final use)", iv.NumUses)
	}
}

func TestDeadDefGetsTinyInterval(t *testing.T) {
	b := ir.NewBuilder("deaddef")
	_ = b.FConst(42) // dead
	b.Ret()
	f := b.Func()
	lv, _ := compute(t, f)
	iv := lv.Intervals[0]
	if iv == nil || iv.Size() != 1 {
		t.Fatalf("dead def interval = %v, want single write slot", iv)
	}
}

func TestWeightPrefersHotRegisters(t *testing.T) {
	b := ir.NewBuilder("weights")
	cold := b.FConst(1)
	hot := b.FConst(2)
	b.Loop(1000, 1, func(i ir.Reg) {
		v := b.FMul(hot, hot)
		b.Assign(hot, v)
	})
	res := b.FAdd(cold, hot)
	base := b.IConst(0)
	b.FStore(res, base, 0)
	b.Ret()
	f := b.Func()
	lv, _ := compute(t, f)
	if lv.IntervalOf(hot).Weight <= lv.IntervalOf(cold).Weight {
		t.Errorf("hot weight %.2f must exceed cold weight %.2f",
			lv.IntervalOf(hot).Weight, lv.IntervalOf(cold).Weight)
	}
}

func TestMaxPressure(t *testing.T) {
	b := ir.NewBuilder("pressure")
	// Create 5 FP values all live at the same point.
	var regs []ir.Reg
	for i := 0; i < 5; i++ {
		regs = append(regs, b.FConst(float64(i)))
	}
	sum := regs[0]
	for _, r := range regs[1:] {
		sum = b.FAdd(sum, r)
	}
	base := b.IConst(0)
	b.FStore(sum, base, 0)
	b.Ret()
	f := b.Func()
	lv, _ := compute(t, f)
	if got := lv.MaxPressure(ir.ClassFP); got != 5 {
		t.Errorf("MaxPressure = %d, want 5", got)
	}
	curve := lv.PressureCurve(ir.ClassFP)
	max := 0
	for _, p := range curve {
		if p > max {
			max = p
		}
	}
	if max != 5 {
		t.Errorf("PressureCurve max = %d, want 5", max)
	}
}

// classIntervals returns the non-empty live intervals of class-c vregs:
// the input MaxOverlap reduces to a function's MaxPressure.
func (lv *Info) classIntervals(c ir.Class) []*Interval {
	var ivs []*Interval
	for i, iv := range lv.Intervals {
		if iv != nil && !iv.Empty() && lv.F.VRegs[i].Class == c {
			ivs = append(ivs, iv)
		}
	}
	return ivs
}

// TestMaxPressureMatchesMaxOverlap checks the one-pass MaxPressure against
// its sorted-sweep reference, MaxOverlap over the class's intervals, for
// both classes of every SPECfp, CNN-KERNEL and DSA-OP function and of
// RandomSized kernels at three sizes.
func TestMaxPressureMatchesMaxOverlap(t *testing.T) {
	var funcs []*ir.Func
	for _, s := range []*workload.Suite{workload.SPECfp(), workload.CNN(), workload.DSAOP()} {
		for _, p := range s.Programs {
			funcs = append(funcs, p.Funcs()...)
		}
	}
	for _, n := range []int{64, 512, 4096} {
		funcs = append(funcs, workload.RandomSized(11, n))
	}
	for _, f := range funcs {
		lv, _ := compute(t, f)
		for _, c := range []ir.Class{ir.ClassFP, ir.ClassGPR} {
			if got, want := lv.MaxPressure(c), MaxOverlap(lv.classIntervals(c)); got != want {
				t.Errorf("%s class %v: MaxPressure = %d, MaxOverlap = %d", f.Name, c, got, want)
			}
		}
	}
}

func TestMaxOverlapSweep(t *testing.T) {
	mk := func(ranges ...[2]int) *Interval {
		iv := &Interval{}
		for _, r := range ranges {
			iv.Add(r[0], r[1])
		}
		return iv
	}
	cases := []struct {
		ivs  []*Interval
		want int
	}{
		{nil, 0},
		{[]*Interval{mk([2]int{0, 10})}, 1},
		{[]*Interval{mk([2]int{0, 10}), mk([2]int{10, 20})}, 1}, // touching
		{[]*Interval{mk([2]int{0, 10}), mk([2]int{5, 15}), mk([2]int{9, 12})}, 3},
		{[]*Interval{mk([2]int{0, 4}, [2]int{8, 12}), mk([2]int{4, 8})}, 1},
	}
	for i, c := range cases {
		if got := MaxOverlap(c.ivs); got != c.want {
			t.Errorf("case %d: MaxOverlap = %d, want %d", i, got, c.want)
		}
	}
}

// quick-check: MaxOverlap equals brute-force maximum of per-slot counts.
func TestMaxOverlapQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var ivs []*Interval
		for k := 0; k < 8; k++ {
			iv := &Interval{}
			for j := 0; j < 3; j++ {
				s := rng.Intn(60)
				iv.Add(s, s+1+rng.Intn(10))
			}
			ivs = append(ivs, iv)
		}
		brute := 0
		for at := 0; at < 80; at++ {
			n := 0
			for _, iv := range ivs {
				if iv.Covers(at) {
					n++
				}
			}
			if n > brute {
				brute = n
			}
		}
		return MaxOverlap(ivs) == brute
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestInterfereAcrossBlocks(t *testing.T) {
	b := ir.NewBuilder("crossblock")
	long := b.FConst(1) // live across the whole diamond
	cond := b.IConst(1)
	ba := b.Block("a")
	bb := b.Block("b")
	join := b.Block("join")
	b.CondBr(cond, ba, bb)
	b.SetBlock(ba)
	shortA := b.FConst(2)
	ra := b.FAdd(long, shortA)
	base1 := b.IConst(0)
	b.FStore(ra, base1, 0)
	b.Br(join)
	b.SetBlock(bb)
	b.Br(join)
	b.SetBlock(join)
	base := b.IConst(0)
	b.FStore(long, base, 1)
	b.Ret()
	f := b.Func()
	lv, _ := compute(t, f)

	if !lv.Interfere(long, shortA) {
		t.Error("long-lived value must interfere with value inside the branch arm")
	}
	// long is live-through block b even though unused there.
	blkB := f.Blocks[2]
	if !lv.LiveIn[blkB.ID].Has(long) || !lv.LiveOut[blkB.ID].Has(long) {
		t.Error("long must be live-through the empty arm")
	}
}

func TestIntervalsDeterministic(t *testing.T) {
	build := func() *ir.Func {
		b := ir.NewBuilder("det")
		var vals []ir.Reg
		for i := 0; i < 10; i++ {
			vals = append(vals, b.FConst(float64(i)))
		}
		sum := vals[0]
		for _, v := range vals[1:] {
			sum = b.FAdd(sum, v)
		}
		base := b.IConst(0)
		b.FStore(sum, base, 0)
		b.Ret()
		return b.Func()
	}
	f1, f2 := build(), build()
	lv1, _ := compute(t, f1)
	lv2, _ := compute(t, f2)
	if len(lv1.Intervals) != len(lv2.Intervals) {
		t.Fatal("interval counts differ")
	}
	for i := range lv1.Intervals {
		a, b2 := lv1.Intervals[i], lv2.Intervals[i]
		if (a == nil) != (b2 == nil) {
			t.Fatalf("interval %d presence differs", i)
		}
		if a == nil {
			continue
		}
		if a.String() != b2.String() {
			t.Errorf("interval %d differs: %v vs %v", i, a, b2)
		}
	}
}

func TestPressureCurveSumsMatchIntervalSizes(t *testing.T) {
	b := ir.NewBuilder("sumcheck")
	x := b.FConst(1)
	y := b.FConst(2)
	z := b.FAdd(x, y)
	base := b.IConst(0)
	b.FStore(z, base, 0)
	b.Ret()
	f := b.Func()
	lv, _ := compute(t, f)
	curve := lv.PressureCurve(ir.ClassFP)
	total := 0
	for _, p := range curve {
		total += p
	}
	want := 0
	for i, iv := range lv.Intervals {
		if iv != nil && f.VRegs[i].Class == ir.ClassFP {
			want += iv.Size()
		}
	}
	if total != want {
		t.Errorf("curve integral = %d, interval sizes = %d", total, want)
	}
	// Determinism of sort in MaxOverlap with duplicated endpoints.
	ivs := lv.classIntervals(ir.ClassFP)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start() < ivs[j].Start() })
	_ = MaxOverlap(ivs)
}
