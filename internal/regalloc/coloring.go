package regalloc

import (
	"context"
	"fmt"
	"sort"
	"time"

	"prescount/internal/cfg"
	"prescount/internal/ir"
	"prescount/internal/liveness"
	"prescount/internal/rcg"
)

// defaultColoringTimeout is the work budget used when Options.ColoringTimeout
// is zero. It is generous: the budget exists to bound the worst case, not to
// trim the common one.
const defaultColoringTimeout = 250 * time.Millisecond

// coloringUnit is the nominal cost of one unit of coloring work. The
// duration budget is divided by this to obtain a unit count, and from then
// on the allocator counts units instead of reading the clock — so whether a
// given function bails to linear scan is a pure function of its IR and
// options, identical run to run and across pool sizes.
const coloringUnit = 100 * time.Nanosecond

// coloringCtxStride is how many budget units elapse between context checks.
const coloringCtxStride = 4096

// RunColoring allocates f by Chaitin-Briggs interference-graph coloring
// with a bank-aware color choice, guarded by a deterministic work budget.
//
// The interference graph is built from the liveness intervals (a segment
// sweep, exact overlap); simplify removes trivially colorable nodes and
// optimistically pushes a lowest-ratio spill candidate when the graph is
// blocked; select colors in reverse removal order, choosing among the legal
// registers the one whose bank carries the least RCG edge weight to already
// colored conflict partners — the same bank-awareness signal the binpacker
// uses, applied at color-choice time. Nodes that fail to color are spilled
// wholesale and flow through the reserved scratch registers exactly as
// under linear scan.
//
// Every structural step (edge built, node scanned, neighbor visited) costs
// one budget unit. When the budget runs out the allocator abandons the
// graph — f has not been touched yet — and falls back to RunLinearScan,
// reporting ColoringBailed. The context is only consulted every
// coloringCtxStride units: a past deadline aborts the compile with the
// context's error (the daemon's 504 path), it never changes the allocation.
func RunColoring(ctx context.Context, f *ir.Func, opts Options) (*Result, error) {
	opts.Cfg = opts.Cfg.Normalize()
	if err := opts.Cfg.Validate(); err != nil {
		return nil, err
	}
	timeout := opts.ColoringTimeout
	if timeout <= 0 {
		timeout = defaultColoringTimeout
	}
	const (
		fpScratch  = 3
		gprScratch = 2
	)
	if opts.Cfg.NumRegs <= fpScratch {
		return nil, fmt.Errorf("regalloc: FP file of %d registers too small for coloring scratch", opts.Cfg.NumRegs)
	}

	cl := &coloring{
		f:      f,
		opts:   opts,
		budget: int64(timeout / coloringUnit),
		ctx:    ctx,
	}
	if ac := opts.Analyses; ac != nil {
		cl.cf = ac.CFG()
		cl.lv = ac.Liveness()
		cl.g = ac.RCG()
	} else {
		cl.cf = cfg.Compute(f)
		cl.lv = liveness.Compute(f, cl.cf)
		cl.g = rcg.Build(f, cl.cf)
	}
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if in.Op == ir.OpCall {
				cl.callSlots = append(cl.callSlots, cl.lv.ReadSlot(b, i))
			}
		}
	}

	ls := &linearScan{
		f:    f,
		opts: opts,
		res: &Result{
			AssignedPhys: map[ir.Reg]int{},
			GroupDispl:   map[int]int{},
		},
		cf:         cl.cf,
		lv:         cl.lv,
		assignment: map[ir.Reg]int{},
		spillSlot:  map[ir.Reg]int{},
	}
	ls.fpScratch = make([]int, 0, fpScratch)
	for i := opts.Cfg.NumRegs - fpScratch; i < opts.Cfg.NumRegs; i++ {
		ls.fpScratch = append(ls.fpScratch, i)
	}
	ls.gprScratch = []int{numGPRFile - gprScratch, numGPRFile - 1}
	cl.ls = ls

	err := func() error {
		if err := cl.color(ir.ClassFP); err != nil {
			return err
		}
		return cl.color(ir.ClassGPR)
	}()
	if err == errColoringBudget {
		// Bail: f is untouched, hand the whole function to linear scan.
		res, lerr := RunLinearScan(f, opts)
		if lerr != nil {
			return nil, lerr
		}
		res.ColoringBailed = true
		return res, nil
	}
	if err != nil {
		return nil, err
	}

	if opts.Record {
		record(ls.res, f, ls.lv, mapLookup(ls.assignment), ls.lv.IntervalOf, mapLookup(ls.spillSlot))
	}
	ls.materialize()
	f.MarkMutated()
	if ac := opts.Analyses; ac != nil {
		ac.RetainCFG()
	}
	return ls.res, f.Verify()
}

// errColoringBudget is the internal signal that the work budget ran out.
var errColoringBudget = fmt.Errorf("regalloc: coloring work budget exhausted")

type coloring struct {
	f    *ir.Func
	opts Options
	cf   *cfg.Info
	lv   *liveness.Info
	g    *rcg.Graph
	ls   *linearScan

	callSlots []int

	budget   int64
	sinceCtx int64
	ctx      context.Context
}

// charge deducts n budget units, checking the context every
// coloringCtxStride units. It returns errColoringBudget when the budget is
// exhausted and the context's error when the deadline passed.
func (cl *coloring) charge(n int64) error {
	cl.budget -= n
	cl.sinceCtx += n
	if cl.sinceCtx >= coloringCtxStride {
		cl.sinceCtx = 0
		if cl.ctx != nil {
			if err := cl.ctx.Err(); err != nil {
				return err
			}
		}
	}
	if cl.budget < 0 {
		return errColoringBudget
	}
	return nil
}

func (cl *coloring) spansCall(iv *liveness.Interval) bool {
	for _, s := range cl.callSlots {
		if iv.Covers(s) {
			return true
		}
	}
	return false
}

// color runs build/simplify/select for one register class.
func (cl *coloring) color(c ir.Class) error {
	// Nodes: vreg indices of this class with non-empty intervals,
	// renumbered densely.
	var vregs []int
	nodeOf := make(map[int]int)
	for idx, info := range cl.f.VRegs {
		if info.Class != c {
			continue
		}
		iv := cl.lv.Intervals[idx]
		if iv == nil || iv.Empty() {
			continue
		}
		nodeOf[idx] = len(vregs)
		vregs = append(vregs, idx)
	}
	n := len(vregs)
	if n == 0 {
		return nil
	}

	// Build the interference graph with a segment-event sweep: at each
	// segment start, the starting node interferes with every active node.
	type event struct {
		slot  int
		start bool
		node  int
	}
	var events []event
	for node, idx := range vregs {
		for _, s := range cl.lv.Intervals[idx].Segments {
			events = append(events, event{s.Start, true, node})
			events = append(events, event{s.End, false, node})
		}
	}
	if err := cl.charge(int64(len(events))); err != nil {
		return err
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].slot != events[j].slot {
			return events[i].slot < events[j].slot
		}
		// Ends before starts at the same slot: half-open segments touching
		// at a point do not overlap.
		if events[i].start != events[j].start {
			return !events[i].start
		}
		return events[i].node < events[j].node
	})
	adj := make([][]int32, n)
	seen := make(map[uint64]struct{})
	active := make([]bool, n)
	var actList []int
	for _, ev := range events {
		if !ev.start {
			active[ev.node] = false
			continue
		}
		// Compact the active list lazily.
		live := actList[:0]
		for _, a := range actList {
			if active[a] {
				live = append(live, a)
			}
		}
		actList = live
		if err := cl.charge(int64(len(actList) + 1)); err != nil {
			return err
		}
		for _, a := range actList {
			if a == ev.node {
				continue
			}
			lo, hi := a, ev.node
			if lo > hi {
				lo, hi = hi, lo
			}
			key := uint64(lo)<<32 | uint64(hi)
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			adj[lo] = append(adj[lo], int32(hi))
			adj[hi] = append(adj[hi], int32(lo))
		}
		if !active[ev.node] {
			active[ev.node] = true
			actList = append(actList, ev.node)
		}
	}

	numRegs := cl.opts.Cfg.NumRegs
	if c == ir.ClassGPR {
		numRegs = numGPRFile
	}
	k := numRegs - len(cl.ls.scratch(c))

	// Simplify: peel degree<k nodes; when stuck, push the node with the
	// smallest weight/degree ratio as an optimistic spill candidate.
	// Ties resolve to the lowest node index, so the stack is deterministic.
	degree := make([]int, n)
	for i := range adj {
		degree[i] = len(adj[i])
	}
	removed := make([]bool, n)
	stack := make([]int, 0, n)
	for len(stack) < n {
		if err := cl.charge(int64(n)); err != nil {
			return err
		}
		pick := -1
		for i := 0; i < n; i++ {
			if !removed[i] && degree[i] < k {
				pick = i
				break
			}
		}
		if pick < 0 {
			best := -1.0
			for i := 0; i < n; i++ {
				if removed[i] {
					continue
				}
				ratio := cl.lv.Intervals[vregs[i]].Weight / float64(degree[i]+1)
				if pick < 0 || ratio < best {
					pick, best = i, ratio
				}
			}
		}
		removed[pick] = true
		stack = append(stack, pick)
		for _, nb := range adj[pick] {
			if !removed[nb] {
				degree[nb]--
			}
		}
	}

	// Select: color in reverse removal order. Bank-aware choice for FP:
	// among the legal registers, minimize the RCG edge weight to already
	// colored conflict partners sharing the candidate's bank.
	color := make([]int, n)
	for i := range color {
		color[i] = -1
	}
	order := gprOrder()
	if c == ir.ClassFP {
		order = allocOrder(numRegs)
	}
	scratchSet := make([]bool, numRegs)
	for _, s := range cl.ls.scratch(c) {
		scratchSet[s] = true
	}
	forbidden := make([]bool, numRegs)
	for i := len(stack) - 1; i >= 0; i-- {
		node := stack[i]
		idx := vregs[node]
		r := ir.VReg(idx)
		iv := cl.lv.Intervals[idx]
		if err := cl.charge(int64(len(adj[node]) + 1)); err != nil {
			return err
		}
		for p := range forbidden {
			forbidden[p] = false
		}
		for _, nb := range adj[node] {
			if color[nb] >= 0 {
				forbidden[color[nb]] = true
			}
		}
		crossesCall := cl.spansCall(iv)
		bestP, bestPen := -1, 0.0
		for _, p := range order {
			if scratchSet[p] || forbidden[p] {
				continue
			}
			if crossesCall && callerSaved(c, p, numRegs) {
				continue
			}
			if c == ir.ClassGPR {
				bestP = p
				break
			}
			pen := cl.bankPenalty(r, p, vregs, nodeOf, color)
			if bestP < 0 || pen < bestPen {
				bestP, bestPen = p, pen
				if pen == 0 {
					break
				}
			}
		}
		if bestP < 0 {
			// Uncolorable: spill the whole range through scratch.
			cl.ls.spillReg(r)
			continue
		}
		color[node] = bestP
		cl.ls.place(r, c, bestP)
	}
	return nil
}

// bankPenalty sums RCG edge weight between r and its already colored
// conflict partners whose register shares candidate p's bank.
func (cl *coloring) bankPenalty(r ir.Reg, p int, vregs []int, nodeOf map[int]int, color []int) float64 {
	bank := cl.opts.Cfg.Bank(p)
	pen := 0.0
	for _, nb := range cl.g.Neighbors(r) {
		if !nb.IsVirt() {
			continue
		}
		node, ok := nodeOf[nb.VirtIndex()]
		if !ok || color[node] < 0 {
			continue
		}
		if cl.opts.Cfg.Bank(color[node]) == bank {
			pen += cl.g.EdgeWeight(r, nb)
		}
	}
	return pen
}
