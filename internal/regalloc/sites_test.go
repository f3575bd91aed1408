package regalloc

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"prescount/internal/bankfile"
	"prescount/internal/cfg"
	"prescount/internal/ir"
	"prescount/internal/liveness"
	"prescount/internal/scratch"
	"prescount/internal/workload"
)

// referenceSpill is spill as it was before the site index: it walks every
// instruction of the function for each spilled register. It is the
// differential oracle for spill's site walk.
func (a *allocator) referenceSpill(r ir.Reg, c ir.Class) {
	a.spilled.Add(r)
	a.res.SpilledVRegs++
	if def := a.referenceRematSource(r); def != nil {
		a.remat.set(r, def)
		a.res.Remats++
	} else {
		a.spillSlot.set(r, int32(a.f.SpillSlots)+1)
		a.f.SpillSlots++
	}

	const maxSpanSlots = 24

	for _, b := range a.f.Blocks {
		type useSite struct {
			in   *ir.Instr
			slot int
		}
		var span []useSite
		flush := func() {
			if len(span) == 0 {
				return
			}
			start := span[0].slot
			end := span[len(span)-1].slot + 1
			p := a.newPseudo(c, start, end)
			a.pseudoParent.set(p, r)
			members := make([]*ir.Instr, len(span))
			for i, site := range span {
				a.sitePseudo[siteKey{site.in, r, false}] = p
				if i == 0 {
					a.firstReload[siteKey{site.in, r, false}] = true
				}
				members[i] = site.in
			}
			a.spanMembers.set(p, members)
			span = span[:0]
		}
		for i, in := range b.Instrs {
			s := a.lv.ReadSlot(b, i)
			if in.Op == ir.OpCall {
				flush()
				continue
			}
			if a.splitChildAt(r, s) != ir.NoReg {
				continue
			}
			if len(span) > 0 && s+1-span[0].slot > maxSpanSlots {
				flush()
			}
			usesR := false
			for _, u := range in.Uses {
				if u == r {
					usesR = true
				}
			}
			if usesR {
				span = append(span, useSite{in, s})
			}
			for _, d := range in.Defs {
				if d == r {
					flush()
					p := a.newPseudo(c, s+1, s+2)
					a.sitePseudo[siteKey{in, r, true}] = p
					a.pseudoParent.set(p, r)
					break
				}
			}
		}
		flush()
	}
}

// referenceDemoteSpan is demoteSpan's whole-function walk.
func (a *allocator) referenceDemoteSpan(p ir.Reg) bool {
	members := a.spanMembers.get(p)
	if len(members) <= 1 {
		return false
	}
	parent := a.pseudoParent.get(p)
	c := a.classOf(p)
	a.spanMembers.set(p, nil)
	a.override.set(p, nil)
	a.pinned.Remove(p)
	for _, b := range a.f.Blocks {
		for i, in := range b.Instrs {
			key := siteKey{in, parent, false}
			if a.sitePseudo[key] != p {
				continue
			}
			s := a.lv.ReadSlot(b, i)
			np := a.newPseudo(c, s, s+1)
			a.pseudoParent.set(np, parent)
			a.sitePseudo[key] = np
			a.firstReload[key] = true
			a.spanMembers.set(np, []*ir.Instr{in})
		}
	}
	return true
}

// referenceRematSource is rematSource's whole-function walk.
func (a *allocator) referenceRematSource(r ir.Reg) *ir.Instr {
	var def *ir.Instr
	for _, b := range a.f.Blocks {
		for _, in := range b.Instrs {
			for _, d := range in.Defs {
				if d != r {
					continue
				}
				if def != nil {
					return nil
				}
				if in.Op != ir.OpFConst && in.Op != ir.OpIConst {
					return nil
				}
				def = in
			}
		}
	}
	return def
}

// spillHarness prepares an unpooled allocator for direct spill calls on f,
// with the analyses, call clobbers and queue run sets up before its loop.
func spillHarness(f *ir.Func) *allocator {
	a := new(allocator)
	a.init(context.Background(), f, Options{Cfg: bankfile.RV2(4).Normalize()})
	a.cf = cfg.Compute(f)
	a.lv = liveness.Compute(f, a.cf)
	a.buildFixedClobbers()
	a.queue = &workQueue{}
	return a
}

// instrPos names an instruction by block and index, so that plans built on
// two clones of one function compare.
type instrPos struct{ block, index int }

func positions(f *ir.Func) map[*ir.Instr]instrPos {
	pos := map[*ir.Instr]instrPos{}
	for bi, b := range f.Blocks {
		for i, in := range b.Instrs {
			pos[in] = instrPos{bi, i}
		}
	}
	return pos
}

type planKey struct {
	at    instrPos
	vreg  ir.Reg
	isDef bool
}

// spillPlan is an allocator's spill and demotion state with instructions
// named by position.
type spillPlan struct {
	regs        int
	slots       int
	segments    map[ir.Reg][]liveness.Segment
	parent      map[ir.Reg]ir.Reg
	members     map[ir.Reg][]instrPos
	remat       map[ir.Reg]instrPos
	spillSlot   map[ir.Reg]int32
	sitePseudo  map[planKey]ir.Reg
	firstReload map[planKey]bool
	queue       []queueItem
}

func planOf(a *allocator) spillPlan {
	pos := positions(a.f)
	p := spillPlan{
		regs:        len(a.f.VRegs),
		slots:       a.f.SpillSlots,
		segments:    map[ir.Reg][]liveness.Segment{},
		parent:      map[ir.Reg]ir.Reg{},
		members:     map[ir.Reg][]instrPos{},
		remat:       map[ir.Reg]instrPos{},
		spillSlot:   map[ir.Reg]int32{},
		sitePseudo:  map[planKey]ir.Reg{},
		firstReload: map[planKey]bool{},
		queue:       slices.Clone(a.queue.items),
	}
	for v := range a.f.VRegs {
		r := ir.VReg(v)
		if iv := a.override.get(r); iv != nil {
			p.segments[r] = iv.Segments
		}
		if pr := a.pseudoParent.get(r); pr != ir.NoReg {
			p.parent[r] = pr
		}
		for _, in := range a.spanMembers.get(r) {
			p.members[r] = append(p.members[r], pos[in])
		}
		if def := a.remat.get(r); def != nil {
			p.remat[r] = pos[def]
		}
		if s := a.spillSlot.get(r); s != 0 {
			p.spillSlot[r] = s
		}
	}
	for k, v := range a.sitePseudo {
		p.sitePseudo[planKey{pos[k.in], k.vreg, k.isDef}] = v
	}
	for k, v := range a.firstReload {
		p.firstReload[planKey{pos[k.in], k.vreg, k.isDef}] = v
	}
	return p
}

// diffPlans names the first part of two plans that differs, or "".
func diffPlans(got, want spillPlan) string {
	switch {
	case got.regs != want.regs:
		return fmt.Sprintf("registers %d, reference %d", got.regs, want.regs)
	case got.slots != want.slots:
		return fmt.Sprintf("spill slots %d, reference %d", got.slots, want.slots)
	case !maps.EqualFunc(got.segments, want.segments, slices.Equal[[]liveness.Segment]):
		return "pseudo intervals"
	case !maps.Equal(got.parent, want.parent):
		return "pseudo parents"
	case !maps.EqualFunc(got.members, want.members, slices.Equal[[]instrPos]):
		return "span members"
	case !maps.Equal(got.remat, want.remat):
		return "remat sources"
	case !maps.Equal(got.spillSlot, want.spillSlot):
		return "stack slots"
	case !maps.Equal(got.sitePseudo, want.sitePseudo):
		return "site pseudos"
	case !maps.Equal(got.firstReload, want.firstReload):
		return "first reloads"
	case !slices.Equal(got.queue, want.queue):
		return "queue pushes"
	}
	return ""
}

// checkSpillAgainstReference runs the same sequence of steps on two clones
// of f, one through the site walks and one through the references. It
// splits every third register around a loop where one fits, so that spans
// skip loop-split regions, then spills every register with a live range in
// register order, then demotes every span pseudo. After each stage the two
// plans must be equal; before each spill, the index must list exactly the
// instructions naming the register.
func checkSpillAgainstReference(t *testing.T, name string, f *ir.Func) {
	t.Helper()
	fa, fb := f.Clone(), f.Clone()
	a, b := spillHarness(fa), spillHarness(fb)
	n := len(fa.VRegs)
	want := make([][]instrPos, n)
	for bi, blk := range fb.Blocks {
		for i, in := range blk.Instrs {
			for _, r := range slices.Concat(in.Uses, in.Defs) {
				if r.IsVirt() && !slices.Contains(want[r.VirtIndex()], instrPos{bi, i}) {
					want[r.VirtIndex()] = append(want[r.VirtIndex()], instrPos{bi, i})
				}
			}
		}
	}
	live := func(r ir.Reg) bool {
		iv := a.intervalOf(r)
		return iv != nil && !iv.Empty()
	}
	for v := 0; v < n; v += 3 {
		if r := ir.VReg(v); live(r) {
			if sa, sb := a.trySplitAroundLoop(r, a.classOf(r)), b.trySplitAroundLoop(r, b.classOf(r)); sa != sb {
				t.Fatalf("%s: split of %v: %v, reference %v", name, r, sa, sb)
			}
		}
	}
	if d := diffPlans(planOf(a), planOf(b)); d != "" {
		t.Fatalf("%s: after loop splits: %s differ", name, d)
	}
	for v := 0; v < n; v++ {
		r := ir.VReg(v)
		var got []instrPos
		for _, g := range a.sitesOf(r) {
			_, blk, i := a.instrAt(g)
			got = append(got, instrPos{slices.Index(fa.Blocks, blk), i})
		}
		if !slices.Equal(got, want[v]) {
			t.Fatalf("%s: sites of %v = %v, reference %v", name, r, got, want[v])
		}
		if live(r) {
			a.spill(r, a.classOf(r))
			b.referenceSpill(r, b.classOf(r))
		}
	}
	if d := diffPlans(planOf(a), planOf(b)); d != "" {
		t.Fatalf("%s: after spilling: %s differ", name, d)
	}
	for p := n; p < len(fa.VRegs); p++ {
		r := ir.VReg(p)
		if da, db := a.demoteSpan(r), b.referenceDemoteSpan(r); da != db {
			t.Fatalf("%s: demotion of %v: %v, reference %v", name, r, da, db)
		}
	}
	if d := diffPlans(planOf(a), planOf(b)); d != "" {
		t.Fatalf("%s: after demotion: %s differ", name, d)
	}
}

// withCalls inserts a call before roughly one in every instructions of f's
// blocks (never after a terminator), so that spans meet call flushes. One
// call in four reads the register the instruction after it reads first,
// so that calls are sites too.
func withCalls(f *ir.Func, rng *rand.Rand, every int) *ir.Func {
	for _, b := range f.Blocks {
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			if rng.Intn(every) != 0 {
				continue
			}
			call := &ir.Instr{Op: ir.OpCall}
			if uses := b.Instrs[i].Uses; len(uses) > 0 && uses[0].IsVirt() && rng.Intn(4) == 0 {
				call.Uses = []ir.Reg{uses[0]}
			}
			b.InsertBefore(i, call)
		}
	}
	return f
}

// TestSiteWalksMatchReference pits spill, rematSource and demoteSpan
// against their whole-function walks on every register of the workload
// corpus, of Random seeds and of RandomSized kernels, each with calls.
func TestSiteWalksMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range []*workload.Suite{workload.SPECfp(), workload.CNN(), workload.DSAOP()} {
		for _, p := range s.Programs {
			for _, f := range p.Funcs() {
				checkSpillAgainstReference(t, s.Name+"/"+f.Name, withCalls(f, rng, 40))
			}
		}
	}
	for seed := int64(1); seed <= 200; seed++ {
		checkSpillAgainstReference(t, fmt.Sprintf("random %d", seed), withCalls(workload.Random(seed), rng, 12))
	}
	for _, size := range []int{64, 500, 2000} {
		for seed := int64(1); seed <= 3; seed++ {
			f := withCalls(workload.RandomSized(seed, size), rng, 30)
			checkSpillAgainstReference(t, fmt.Sprintf("sized %d seed %d", size, seed), f)
		}
	}
}

// TestRematSourceSeesCallDefs checks that a definition on a call counts
// like any other: it makes a constant register redefined, and a register
// defined only there is no constant.
func TestRematSourceSeesCallDefs(t *testing.T) {
	build := func(constDef bool) (*ir.Func, ir.Reg) {
		bd := ir.NewBuilder("calldef")
		base := bd.IConst(0)
		var v ir.Reg
		if constDef {
			v = bd.FConst(1.5)
		} else {
			v = bd.FLoad(base, 0)
		}
		bd.FStore(v, base, 1)
		bd.Call()
		bd.FStore(v, base, 2)
		bd.Ret()
		f := bd.Func()
		return f, v
	}
	f, v := build(true)
	if a := spillHarness(f); a.rematSource(v) == nil {
		t.Fatalf("sole constant definition not rematerializable")
	}
	for _, constDef := range []bool{true, false} {
		f, v := build(constDef)
		for _, in := range f.Blocks[0].Instrs {
			if in.Op == ir.OpCall {
				in.Defs = []ir.Reg{v}
			}
		}
		a := spillHarness(f)
		if got, ref := a.rematSource(v), a.referenceRematSource(v); got != nil || ref != nil {
			t.Fatalf("const %v: remat source %v, reference %v; want none with a def on the call", constDef, got, ref)
		}
	}
}

// TestSpillSiteVisitsScale bounds spilling's work per input instruction: a
// bpc compile of RandomSized(7, 32000) on RV#2 with 4 banks may visit at
// most 3× the sites per instruction that RandomSized(7, 500) does. The
// whole-function walks visited 95 instructions per input instruction at
// 500 and 6,414 at 32,000, 67× as many.
func TestSpillSiteVisitsScale(t *testing.T) {
	perInstr := func(size int) float64 {
		f := workload.RandomSized(7, size)
		n := f.NumInstrs()
		before := siteVisits.Load()
		res, _ := runPipeline(t, f, bankfile.RV2(4), MethodBPC)
		if res.SpilledVRegs == 0 {
			t.Fatalf("RandomSized(7, %d) spilled nothing: the gate would measure no walk", size)
		}
		return float64(siteVisits.Load()-before) / float64(n)
	}
	small, large := perInstr(500), perInstr(32000)
	t.Logf("site visits per input instruction: %.2f at 500, %.2f at 32000 (%.2fx)", small, large, large/small)
	if large > 3*small {
		t.Fatalf("site visits per instruction grew %.1fx from 500 to 32000 instructions; want at most 3x", large/small)
	}
}

// TestMaterializeLeavesBufferClear runs a large function and then a small
// one through one allocator. materialize clears only the part of its block
// buffer a run filled, so this holds only if every run clears what it used:
// afterwards no slot up to the buffer's capacity may hold an instruction.
func TestMaterializeLeavesBufferClear(t *testing.T) {
	scratch.SetDisabled(true) // release must not hand a to the pool
	defer scratch.SetDisabled(false)
	a := new(allocator)
	run := func(f *ir.Func) int {
		a.init(context.Background(), f, Options{Cfg: bankfile.RV2(4).Normalize()})
		if err := a.run(); err != nil {
			t.Fatal(err)
		}
		used := len(a.instrBuf)
		a.release()
		return used
	}
	large := run(workload.RandomSized(3, 2000))
	small := run(workload.RandomSized(3, 64))
	if small >= large || cap(a.instrBuf) < large {
		t.Fatalf("buffer used %d then %d of capacity %d: the second run must use less", large, small, cap(a.instrBuf))
	}
	for i, in := range a.instrBuf[:cap(a.instrBuf)] {
		if in != nil {
			t.Fatalf("buffer slot %d of %d still holds %v after the small run", i, cap(a.instrBuf), in)
		}
	}
}
