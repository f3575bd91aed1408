// Package regalloc implements the Enhanced Register Allocation phase of the
// paper's Figure 4: a greedy live-interval register allocator in the style
// of LLVM's RAGreedy, extended with
//
//   - bank assignment constraints produced by the PresCount assigner
//     (internal/assign), honored through candidate ordering ("hints");
//   - the bcr baseline's per-instruction greedy bank hinting (mimicking the
//     Intel Graphics Compiler heuristic the paper compares against);
//   - subgroup displacement bookkeeping for the DSA's bank-subgroup file
//     (Algorithm 2): groups of registers connected in the SDG receive one
//     subgroup displacement, chosen as the least-used subgroup, and the
//     allocator prefers physical registers conforming to (bank, displ).
//
// The allocator assigns FP and GPR classes independently and evicts
// lower-weight intervals when beneficial. When an interval cannot be
// placed, it is first considered for live-range splitting around a loop
// (a pinned child register serves the loop region); otherwise it spills,
// with region-based reload placement (consecutive uses share one reload)
// and rematerialization for constants. All spill and split code is planned
// during allocation over a stable slot-index space and materialized in a
// single rewrite at the end.
package regalloc

import (
	"context"
	"fmt"
	"math"
	"sync"

	"prescount/internal/analysis"
	"prescount/internal/bankfile"
	"prescount/internal/cfg"
	"prescount/internal/ir"
	"prescount/internal/liveness"
	"prescount/internal/scratch"
)

// Method selects the bank-conflict mitigation strategy of the allocator.
type Method int

const (
	// MethodNon is the default allocation with no bank awareness.
	MethodNon Method = iota
	// MethodBCR applies greedy per-instruction bank hinting at allocation
	// time (the Intel-GC-style baseline).
	MethodBCR
	// MethodBPC consumes the PresCount pre-allocation bank assignment.
	MethodBPC
	// MethodBRC allocates like MethodNon and relies on a post-allocation
	// register renumbering pass (internal/renumber) applied by the
	// pipeline — the Patney/LTRF-style baseline of the paper's figures.
	MethodBRC
	// MethodBinpack replaces the greedy allocator with Traub-style
	// second-chance binpacking (RunBinpack): live ranges are packed into
	// banked registers in start order, later intervals may evict earlier
	// ones, and evicted remainders get a second chance in another register.
	MethodBinpack
	// MethodColoring replaces the greedy allocator with interference-graph
	// coloring (RunColoring): Chaitin-Briggs simplify/select with a
	// bank-aware color cost from the RCG, guarded by a deterministic work
	// budget that bails to linear scan so it can never hang a request.
	MethodColoring
	// MethodPortfolio is a pipeline method, like MethodBRC: core races
	// bpc, brc, binpack and coloring on each function and keeps the
	// cheapest result. The allocator never receives it.
	MethodPortfolio
)

// String returns the paper's name for the method.
func (m Method) String() string {
	switch m {
	case MethodBCR:
		return "bcr"
	case MethodBPC:
		return "bpc"
	case MethodBRC:
		return "brc"
	case MethodBinpack:
		return "binpack"
	case MethodColoring:
		return "coloring"
	case MethodPortfolio:
		return "portfolio"
	default:
		return "non"
	}
}

// Options configures one allocation run.
type Options struct {
	// Cfg is the FP register file configuration.
	Cfg bankfile.Config
	// Method selects non/bcr/bpc behaviour.
	Method Method
	// BankOf is the PresCount bank assignment for RCG registers (bpc only).
	BankOf map[ir.Reg]int
	// FreeHints is the PresCount balancing hint for RCG-absent registers
	// (bpc only).
	FreeHints map[ir.Reg]int
	// SubgroupGroups maps FP vregs to their SDG group id; enables
	// Algorithm 2 subgroup displacement bookkeeping when Cfg.HasSubgroups.
	SubgroupGroups map[ir.Reg]int
	// Analyses, when non-nil, supplies the cached CFG and liveness of the
	// function (internal/analysis) so the allocator reuses the analyses
	// already computed by earlier pipeline phases instead of recomputing.
	// After its rewrite the allocator marks the function mutated and
	// re-stamps the CFG as retained (allocation never edits control flow).
	Analyses *analysis.Cache
	// Record, when set, fills Result.Assignments, Result.SpillSlotOf and
	// Result.EntryLiveIn so the phase-boundary verifier (internal/verify)
	// can audit the allocation against independently recomputed liveness.
	// Off by default: recording allocates on the hot path.
	Record bool
}

// Assignment records one virtual register's final physical placement,
// captured under Options.Record. Reg may be an allocator-created spill
// pseudo or split child; Interval is the live interval the allocator
// actually used for it (synthesized for pseudos).
type Assignment struct {
	Reg      ir.Reg
	Class    ir.Class
	Phys     int // index within the class's register file
	Interval *liveness.Interval
}

// Result reports the allocation outcome. After Run the function is fully
// rewritten onto physical registers.
type Result struct {
	// LoopSplits counts live ranges split around a loop instead of
	// spilled.
	LoopSplits int
	// SpilledVRegs is the number of virtual registers sent to stack slots
	// (both classes).
	SpilledVRegs int
	// SpillStores and SpillReloads count inserted spill/reload
	// instructions.
	SpillStores, SpillReloads int
	// Evictions counts interval evictions.
	Evictions int
	// Remats counts spilled registers handled by rematerializing their
	// constant instead of a stack slot.
	Remats int
	// BankBreaks counts FP intervals that could not be placed in their
	// PresCount-assigned bank.
	BankBreaks int
	// AssignedPhys maps original FP vregs to the physical FP register they
	// landed in (the bank is Cfg.Bank of that index). Storing the physical
	// index rather than the bank keeps the Result bank-oblivious for
	// methods whose allocation never reads the bank count (non, and brc's
	// allocation phase), which is what lets the compile cache share one
	// allocation across every bank point of a sweep.
	AssignedPhys map[ir.Reg]int
	// GroupDispl maps SDG group id to its chosen subgroup displacement.
	GroupDispl map[int]int
	// Rescues counts evicted interval remainders the binpacking allocator
	// re-placed into another register — the "second chance" of the
	// Traub/Holloway/Smith scheme (MethodBinpack only).
	Rescues int
	// ColoringBailed reports that the coloring allocator exhausted its
	// work budget and fell back to linear scan (MethodColoring only).
	ColoringBailed bool

	// Assignments lists every placed virtual register with the interval
	// the allocator used. Filled only under Options.Record.
	Assignments []Assignment
	// SpillSlotOf maps each stack-spilled register to its slot
	// (rematerialized registers are absent). Filled only under
	// Options.Record.
	SpillSlotOf map[ir.Reg]int
	// EntryLiveIn lists virtual registers live into the entry block before
	// rewriting: values the function consumes without defining (legal in
	// this IR; they read as zero/garbage). The verifier uses it to tell a
	// dropped reload from a legitimately undefined input. Filled only
	// under Options.Record.
	EntryLiveIn []ir.Reg
}

// numGPRFile is the GPR file size used for the scalar class.
const numGPRFile = ir.NumGPR

// allocPool recycles allocator state — per-register tables, union slabs,
// scratch buffers — across Run invocations. release() clears every
// per-compile reference before returning the allocator, so the pool never
// retains IR from a previous function; steady-state module compiles and
// sweeps then run the allocator nearly allocation-free apart from the
// Result itself. scratch.SetDisabled turns the pool off, so fresh-memory
// compiles really run on fresh allocators.
var allocPool = sync.Pool{New: func() any { return new(allocator) }}

// greedyCtxStride is how many assignOne iterations pass between context
// checks in RunContext. One iteration costs microseconds, up to a
// function-wide scan when it spills, so the check costs nothing measurable
// and bounds the overshoot past a deadline to a few iterations' work.
const greedyCtxStride = 16

// Run allocates f onto physical registers in place and returns statistics.
func Run(f *ir.Func, opts Options) (*Result, error) {
	return RunContext(context.Background(), f, opts)
}

// RunContext is Run under a context: the allocation loop checks ctx every
// greedyCtxStride assignOne iterations and, once it is done, abandons the
// allocation with an error wrapping ctx.Err(). Like any failed run, a
// cancelled one may leave allocator-created registers and spill slots in f,
// so the caller discards f (core compiles a clone). The context never
// changes an allocation, only whether one is returned.
func RunContext(ctx context.Context, f *ir.Func, opts Options) (*Result, error) {
	opts.Cfg = opts.Cfg.Normalize()
	if err := opts.Cfg.Validate(); err != nil {
		return nil, err
	}
	var a *allocator
	if scratch.Disabled() {
		a = new(allocator)
	} else {
		a = allocPool.Get().(*allocator)
	}
	a.init(ctx, f, opts)
	err := a.run()
	res := a.res
	a.release()
	if err != nil {
		return nil, err
	}
	return res, nil
}

type allocator struct {
	ctx  context.Context
	f    *ir.Func
	opts Options
	res  *Result

	cf *cfg.Info
	lv *liveness.Info

	// unions[class][phys] is the interval union occupying one physical
	// register of the class. Value slabs rather than pointer slices: the
	// zero Union is ready to use, so sizing the slab is one allocation
	// instead of one object plus three maps per physical register.
	fpUnions  []liveness.Union
	gprUnions []liveness.Union

	// unionIndex finds union members by VirtIndex for both register files:
	// a register sits in at most one union at a time.
	unionIndex liveness.OwnerIndex

	// The per-register state below is dense by VirtIndex (vregTable, or a
	// RegSet for flags). Tables are sized from len(f.VRegs) in init and
	// grow as spill pseudos and split children are created.
	//
	// assigned holds 1 + the physical index within the class file (0:
	// unassigned).
	assigned vregTable[int32]
	// override holds the intervals that replace liveness's: synthesized
	// ranges of spill pseudos and split children, and the shrunken
	// remainder of a split parent (nil: use liveness).
	override vregTable[*liveness.Interval]
	// pinned marks spill pseudos and split children: their weight is
	// infinite, so they must get a register and may evict anything finite.
	pinned ir.RegSet
	// spillSlot holds 1 + the stack slot of a spilled vreg (0: none).
	spillSlot vregTable[int32]
	// sitePseudo maps (instr, spilled vreg, isDef) -> pseudo vreg.
	sitePseudo map[siteKey]ir.Reg
	// spilled marks vregs already spilled (cannot spill twice).
	spilled ir.RegSet
	// remat holds the constant-producing definition of a rematerializable
	// spilled vreg.
	remat vregTable[*ir.Instr]
	// pseudoParent holds the spilled register a spill pseudo-register
	// stands in for; hint lookups resolve through it (the paper's
	// Algorithm 2 handles such allocator-created registers explicitly).
	pseudoParent vregTable[ir.Reg]
	// spanMembers holds the instructions a span pseudo serves;
	// firstReload marks the site that emits the span's single reload.
	spanMembers vregTable[[]*ir.Instr]
	firstReload map[siteKey]bool
	// splits records committed loop splits per parent register; splitDone
	// limits each register to a single split.
	splits    vregTable[[]splitPlan]
	splitDone ir.RegSet
	// loops is the per-run view of every loop split decisions read, built
	// on the first split attempt (see buildLoops).
	loops      []loopInfo
	loopsBuilt bool

	// Dense views of the bank and subgroup options, built once in init:
	// bankOf holds 1 + Options.BankOf's bank, bankHint 1 + the bank bpc
	// steers toward (BankOf, else FreeHints), groupOf 1 + the SDG group
	// id; groupSize counts each group's members.
	bankOf, bankHint vregTable[int32]
	groupOf          vregTable[int32]
	groupSize        map[int]int

	// subgroup bookkeeping (Algorithm 2).
	usage []int // per-subgroup accumulated usage

	// conflictSite caches each register's hottest conflict-relevant
	// instruction for the bcr heuristic, and siteCost that site's cost
	// (built lazily, when sitesBuilt is false).
	conflictSite vregTable[*ir.Instr]
	siteCost     vregTable[float64]
	sitesBuilt   bool

	// victimScratch is the reusable ConflictsWithAppend buffer of the
	// eviction scan: assignOne probes every candidate register, so the
	// owner list is requested O(candidates) times per interval.
	victimScratch []ir.Reg
	// vsScratch collects the current candidate's victims and swaps with
	// bestVictims when a new best is found, keeping the eviction scan
	// allocation-free.
	vsScratch, bestVictims []ir.Reg

	// Candidate-building scratch (hints.go). bpcCandidates nests a
	// bcrCandidates call, so the two get distinct buffers; calleeBuf and
	// callerBuf serve assignOne's CSR-aware reordering.
	candSeen             []bool
	candOut              []int
	bcrAvoid             []bool
	bcrGood, bcrBad      []int
	calleeBuf, callerBuf []int

	// callSlots and clobber are the fixed-clobber scratch: every
	// caller-saved register of both classes shares the one clobber
	// interval (their contents are identical by construction).
	callSlots []int
	clobber   liveness.Interval

	// fixedFP and fixedGPR hold per-physical-register clobber intervals
	// from call sites: caller-saved registers are unavailable to any
	// interval that spans a call, forcing long-lived values into the
	// callee-saved subset or onto the stack.
	fixedFP, fixedGPR []*liveness.Interval

	queue *workQueue
}

type siteKey struct {
	in    *ir.Instr
	vreg  ir.Reg
	isDef bool
}

// init prepares a pooled allocator for one run: a fresh Result (it escapes
// to the caller), per-register tables sized to f, dense views of the bank
// and subgroup options, and right-sized union slabs sharing one owner index.
func (a *allocator) init(ctx context.Context, f *ir.Func, opts Options) {
	a.ctx = ctx
	a.f = f
	a.opts = opts
	a.res = &Result{GroupDispl: map[int]int{}}
	if a.sitePseudo == nil {
		a.sitePseudo = map[siteKey]ir.Reg{}
		a.firstReload = map[siteKey]bool{}
	}
	n := len(f.VRegs)
	a.assigned.reset(n)
	a.override.reset(n)
	a.spillSlot.reset(n)
	a.remat.reset(n)
	a.pseudoParent.reset(n)
	a.spanMembers.reset(n)
	a.splits.reset(n)
	a.bankOf.reset(n)
	a.bankHint.reset(n)
	a.groupOf.reset(n)
	if len(opts.SubgroupGroups) > 0 {
		a.groupSize = make(map[int]int)
	}
	if len(opts.BankOf)+len(opts.FreeHints)+len(opts.SubgroupGroups) > 0 {
		for idx := range f.VRegs {
			r := ir.VReg(idx)
			if b, ok := opts.BankOf[r]; ok {
				a.bankOf.v[idx] = int32(b) + 1
				a.bankHint.v[idx] = int32(b) + 1
			} else if b, ok := opts.FreeHints[r]; ok {
				a.bankHint.v[idx] = int32(b) + 1
			}
			if g, ok := opts.SubgroupGroups[r]; ok {
				a.groupOf.v[idx] = int32(g) + 1
				a.groupSize[g]++
			}
		}
	}
	a.usage = scratch.Zeroed(a.usage, opts.Cfg.NumSubgroups)
	if cap(a.fpUnions) < opts.Cfg.NumRegs {
		a.fpUnions = make([]liveness.Union, opts.Cfg.NumRegs)
	} else {
		a.fpUnions = a.fpUnions[:opts.Cfg.NumRegs]
	}
	if cap(a.gprUnions) < numGPRFile {
		a.gprUnions = make([]liveness.Union, numGPRFile)
	} else {
		a.gprUnions = a.gprUnions[:numGPRFile]
	}
	for i := range a.fpUnions {
		a.fpUnions[i].UseIndex(&a.unionIndex)
	}
	for i := range a.gprUnions {
		a.gprUnions[i].UseIndex(&a.unionIndex)
	}
}

// release clears every per-compile reference — the pool must retain no IR or
// intervals from the finished function — and returns the allocator. Each
// table and union resets over what this run used, never over what an
// earlier, larger function grew it to.
func (a *allocator) release() {
	a.assigned.release()
	a.override.release()
	a.spillSlot.release()
	a.remat.release()
	a.pseudoParent.release()
	a.spanMembers.release()
	a.splits.release()
	a.bankOf.release()
	a.bankHint.release()
	a.groupOf.release()
	a.groupSize = nil
	a.conflictSite.release()
	a.siteCost.release()
	a.sitesBuilt = false
	clear(a.loops)
	a.loops = a.loops[:0]
	a.loopsBuilt = false
	clear(a.sitePseudo)
	clear(a.firstReload)
	a.pinned.Clear()
	a.spilled.Clear()
	a.splitDone.Clear()
	for i := range a.fpUnions {
		a.fpUnions[i].Reset()
	}
	for i := range a.gprUnions {
		a.gprUnions[i].Reset()
	}
	a.clobber = liveness.Interval{Segments: a.clobber.Segments[:0]}
	a.victimScratch = a.victimScratch[:0]
	if a.queue != nil {
		a.queue.release()
		a.queue = nil
	}
	a.ctx, a.f, a.res, a.cf, a.lv = nil, nil, nil, nil, nil
	a.opts = Options{}
	if !scratch.Disabled() {
		allocPool.Put(a)
	}
}

func (a *allocator) run() error {
	if ac := a.opts.Analyses; ac != nil {
		a.cf = ac.CFG()
		a.lv = ac.Liveness()
	} else {
		a.cf = cfg.Compute(a.f)
		a.lv = liveness.Compute(a.f, a.cf)
	}
	a.buildFixedClobbers()

	a.queue = newWorkQueue(len(a.f.VRegs))
	for idx := range a.f.VRegs {
		r := ir.VReg(idx)
		iv := a.intervalOf(r)
		if iv == nil || iv.Empty() {
			continue
		}
		a.queue.push(r, a.priorityOf(r))
	}

	guard, assigned := 0, 0
	maxSteps := 50 * (len(a.f.VRegs) + 10) * (a.opts.Cfg.NumRegs + numGPRFile)
	for a.queue.Len() > 0 {
		guard++
		if guard > maxSteps {
			return fmt.Errorf("regalloc: %s: allocation did not converge", a.f.Name)
		}
		r := a.queue.pop()
		if a.assigned.get(r) != 0 {
			continue
		}
		if assigned++; assigned%greedyCtxStride == 0 {
			if err := a.ctx.Err(); err != nil {
				return fmt.Errorf("regalloc: %s: %w", a.f.Name, err)
			}
		}
		if err := a.assignOne(r); err != nil {
			return err
		}
	}
	a.queue.release()
	a.queue = nil
	a.res.AssignedPhys = make(map[ir.Reg]int, len(a.f.VRegs))
	for idx, info := range a.f.VRegs {
		if r := ir.VReg(idx); info.Class == ir.ClassFP {
			if p, ok := a.physIndex(r); ok {
				a.res.AssignedPhys[r] = p
			}
		}
	}
	if a.opts.Record {
		record(a.res, a.f, a.lv, a.physIndex, a.intervalOf, func(r ir.Reg) (int, bool) {
			s := a.spillSlot.get(r)
			return int(s) - 1, s != 0
		})
	}
	a.materialize()
	a.f.MarkMutated()
	if ac := a.opts.Analyses; ac != nil {
		ac.RetainCFG() // spill code and operand rewrites keep control flow
	}
	return a.f.Verify()
}

// buildFixedClobbers records, for every caller-saved physical register, a
// clobber interval with one slot per call site. The contents are identical
// for every such register of both classes, and nothing ever mutates or
// inserts them into a union, so they all share the allocator's single
// reusable clobber interval.
func (a *allocator) buildFixedClobbers() {
	a.fixedFP = scratch.Zeroed(a.fixedFP, a.opts.Cfg.NumRegs)
	a.fixedGPR = scratch.Zeroed(a.fixedGPR, numGPRFile)
	a.callSlots = a.callSlots[:0]
	for _, b := range a.f.Blocks {
		for i, in := range b.Instrs {
			if in.Op == ir.OpCall {
				a.callSlots = append(a.callSlots, a.lv.ReadSlot(b, i))
			}
		}
	}
	if len(a.callSlots) == 0 {
		return
	}
	iv := &a.clobber
	for _, s := range a.callSlots {
		iv.Add(s, s+1)
	}
	for p := 0; p < a.opts.Cfg.NumRegs; p++ {
		if ir.CallerSavedFPR(p, a.opts.Cfg.NumRegs) {
			a.fixedFP[p] = iv
		}
	}
	for p := 0; p < numGPRFile; p++ {
		if ir.CallerSavedGPR(p) {
			a.fixedGPR[p] = iv
		}
	}
}

// fixedOf returns the clobber interval of a physical register (nil if the
// register is callee-saved or there are no calls).
func (a *allocator) fixedOf(c ir.Class, p int) *liveness.Interval {
	if c == ir.ClassFP {
		return a.fixedFP[p]
	}
	return a.fixedGPR[p]
}

// spansCall reports whether the interval overlaps any call-site clobber.
func (a *allocator) spansCall(c ir.Class, iv *liveness.Interval) bool {
	// Every caller-saved register carries the same clobber interval; probe
	// the first one of the class.
	fixed := a.fixedFP
	if c == ir.ClassGPR {
		fixed = a.fixedGPR
	}
	for _, fx := range fixed {
		if fx != nil {
			return fx.Overlaps(iv)
		}
	}
	return false
}

func (a *allocator) classOf(r ir.Reg) ir.Class { return a.f.VRegs[r.VirtIndex()].Class }

func (a *allocator) unions(c ir.Class) []liveness.Union {
	if c == ir.ClassFP {
		return a.fpUnions
	}
	return a.gprUnions
}

func (a *allocator) intervalOf(r ir.Reg) *liveness.Interval {
	if iv := a.override.get(r); iv != nil {
		return iv
	}
	if r.VirtIndex() < len(a.lv.Intervals) {
		return a.lv.Intervals[r.VirtIndex()]
	}
	return nil
}

// physIndex returns r's physical index within its class file and whether
// r is assigned (0, false when it is not).
func (a *allocator) physIndex(r ir.Reg) (int, bool) {
	v := a.assigned.get(r)
	if v == 0 {
		return 0, false
	}
	return int(v) - 1, true
}

func (a *allocator) weightOf(r ir.Reg) float64 {
	if a.pinned.Has(r) {
		return math.Inf(1)
	}
	iv := a.intervalOf(r)
	if iv == nil {
		return 0
	}
	return iv.Weight
}

// priorityOf is the allocation-queue key: long intervals first (LLVM
// RAGreedy's global-before-local ordering), with spill pseudo-registers at
// the very front. Priority deliberately differs from the eviction weight —
// that difference is what lets a hot, short interval arriving late evict a
// long, cold one allocated early.
func (a *allocator) priorityOf(r ir.Reg) float64 {
	if a.pinned.Has(r) {
		return math.Inf(1) // spill pseudos: handled immediately
	}
	iv := a.intervalOf(r)
	if iv == nil {
		return 0
	}
	return float64(iv.Size())
}

// assignOne places one virtual register: free candidate, then eviction,
// then spilling.
func (a *allocator) assignOne(r ir.Reg) error {
	c := a.classOf(r)
	iv := a.intervalOf(r)
	unions := a.unions(c)
	spansCall := a.spansCall(c, iv)
	cands, whole := a.candidateHead(r, c)
	if !whole && spansCall {
		cands, whole = a.bpcTail(r), true
	}
	// CSR-aware ordering: an interval crossing a call can only live in
	// callee-saved registers, so try those first (stable within each
	// group) instead of burning through doomed caller-saved candidates.
	if spansCall {
		callee := a.calleeBuf[:0]
		caller := a.callerBuf[:0]
		for _, p := range cands {
			if a.fixedOf(c, p) != nil {
				caller = append(caller, p)
			} else {
				callee = append(callee, p)
			}
		}
		callee = append(callee, caller...)
		a.calleeBuf, a.callerBuf = callee, caller
		cands = callee
	}

	// Stage 1: first free candidate (callee-saved availability included:
	// a caller-saved register is unusable for intervals spanning a call).
	// A partial list is the bank-conforming head: only when it has no free
	// register does the search continue into the tail, so the first free
	// register found is the first of the whole list.
	if p := a.firstFree(c, iv, cands); p >= 0 {
		a.place(r, c, p)
		return nil
	}
	if !whole {
		head := len(cands)
		cands = a.bpcTail(r)
		if p := a.firstFree(c, iv, cands[head:]); p >= 0 {
			a.place(r, c, p)
			return nil
		}
	}

	// Stage 2: eviction. Choose the candidate whose interfering intervals
	// all weigh strictly less than r, minimizing the evicted weight sum.
	w := a.weightOf(r)
	bestP := -1
	bestCost := math.Inf(1)
	a.bestVictims = a.bestVictims[:0]
	for _, p := range cands {
		if fx := a.fixedOf(c, p); fx != nil && fx.Overlaps(iv) {
			continue // call clobbers are not evictable
		}
		a.victimScratch = unions[p].ConflictsWithAppend(a.victimScratch, iv)
		ok := true
		cost := 0.0
		vs := a.vsScratch[:0]
		for _, vr := range a.victimScratch {
			vw := a.weightOf(vr)
			if vw >= w {
				ok = false
				break
			}
			cost += vw
			vs = append(vs, vr)
		}
		a.vsScratch = vs
		if ok && cost < bestCost {
			bestP, bestCost = p, cost
			a.vsScratch, a.bestVictims = a.bestVictims, a.vsScratch
		}
	}
	if bestP >= 0 {
		for _, v := range a.bestVictims {
			a.evict(v, c, bestP)
		}
		a.place(r, c, bestP)
		return nil
	}

	// Stage 3: spill. A span pseudo that cannot be placed is demoted to
	// per-use pseudos; a per-use pseudo that cannot be placed is a bug
	// (its one-slot interval conflicts with at most an instruction's worth
	// of other pseudos).
	if a.weightOf(r) == math.Inf(1) {
		if a.demoteSpan(r) {
			return nil
		}
		return fmt.Errorf("regalloc: %s: unassignable spill pseudo-register %v", a.f.Name, r)
	}
	// Stage 3a: live-range splitting around a loop, the cheaper remedy the
	// paper's Enhanced RA applies before committing to memory traffic.
	if a.trySplitAroundLoop(r, c) {
		return nil
	}
	a.spill(r, c)
	return nil
}

// firstFree returns the first candidate whose register is free over iv,
// or -1.
func (a *allocator) firstFree(c ir.Class, iv *liveness.Interval, cands []int) int {
	unions := a.unions(c)
	for _, p := range cands {
		if fx := a.fixedOf(c, p); fx != nil && fx.Overlaps(iv) {
			continue
		}
		if !unions[p].HasConflict(iv) {
			return p
		}
	}
	return -1
}

func (a *allocator) place(r ir.Reg, c ir.Class, p int) {
	a.assigned.set(r, int32(p)+1)
	a.unions(c)[p].Insert(r, a.intervalOf(r))
	if c == ir.ClassFP && a.opts.Method == MethodBPC {
		if want := a.bankOf.get(r); want != 0 && int(want)-1 != a.opts.Cfg.Bank(p) {
			a.res.BankBreaks++
		}
	}
}

func (a *allocator) evict(r ir.Reg, c ir.Class, p int) {
	a.unions(c)[p].Remove(r)
	a.assigned.set(r, 0)
	a.res.Evictions++
	a.queue.push(r, a.priorityOf(r))
}

// workQueue is a max-heap over (weight, then smaller register first). It is
// hand-rolled rather than built on container/heap: the stdlib interface
// boxes every queueItem into an interface{} on Push, which costs one heap
// allocation per enqueue on the allocator's hottest control path. The sift
// procedures mirror container/heap's exactly, so the pop order — already
// fully determined by the strict (weight desc, register asc) total order —
// is unchanged.
type workQueue struct{ items []queueItem }

type queueItem struct {
	r ir.Reg
	w float64
}

// queuePool recycles the backing slice across Run invocations: the queue
// drains completely every allocation, so steady-state module compiles reuse
// one grown slice per worker instead of reallocating per function.
var queuePool = sync.Pool{New: func() any { return new(workQueue) }}

// newWorkQueue returns a pooled queue with capacity for at least n items
// (pass len(f.VRegs): every live vreg is pushed once up front, and eviction
// re-pushes never outnumber the vregs in flight).
func newWorkQueue(n int) *workQueue {
	var q *workQueue
	if scratch.Disabled() {
		q = new(workQueue)
	} else {
		q = queuePool.Get().(*workQueue)
	}
	if cap(q.items) < n {
		q.items = make([]queueItem, 0, n)
	} else {
		q.items = q.items[:0]
	}
	return q
}

// release returns the queue (and its grown slice) to the pool.
func (q *workQueue) release() {
	q.items = q.items[:0]
	if !scratch.Disabled() {
		queuePool.Put(q)
	}
}

func (q *workQueue) Len() int { return len(q.items) }
func (q *workQueue) less(i, j int) bool {
	if q.items[i].w != q.items[j].w {
		return q.items[i].w > q.items[j].w
	}
	return q.items[i].r < q.items[j].r
}

func (q *workQueue) push(r ir.Reg, w float64) {
	q.items = append(q.items, queueItem{r, w})
	q.up(len(q.items) - 1)
}

func (q *workQueue) pop() ir.Reg {
	n := len(q.items) - 1
	q.items[0], q.items[n] = q.items[n], q.items[0]
	q.down(0, n)
	it := q.items[n]
	q.items = q.items[:n]
	return it.r
}

func (q *workQueue) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !q.less(j, i) {
			break
		}
		q.items[i], q.items[j] = q.items[j], q.items[i]
		j = i
	}
}

func (q *workQueue) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && q.less(j2, j1) {
			j = j2
		}
		if !q.less(j, i) {
			break
		}
		q.items[i], q.items[j] = q.items[j], q.items[i]
		i = j
	}
}

// record captures the final pre-rewrite allocation state into res, walking
// the vreg table in index order so the recorded lists are deterministic.
// physOf reports a register's placement; intervalOf the interval the
// allocator used for it (overrides included); spillSlot its stack slot.
func record(res *Result, f *ir.Func, lv *liveness.Info,
	physOf func(ir.Reg) (int, bool), intervalOf func(ir.Reg) *liveness.Interval,
	spillSlot func(ir.Reg) (int, bool)) {
	entry := f.Entry()
	res.SpillSlotOf = make(map[ir.Reg]int)
	for idx := range f.VRegs {
		r := ir.VReg(idx)
		if p, ok := physOf(r); ok {
			res.Assignments = append(res.Assignments, Assignment{
				Reg: r, Class: f.VRegs[idx].Class, Phys: p, Interval: intervalOf(r),
			})
		}
		if s, ok := spillSlot(r); ok {
			res.SpillSlotOf[r] = s
		}
		if lv.LiveIn[entry.ID].Has(r) {
			res.EntryLiveIn = append(res.EntryLiveIn, r)
		}
	}
}
