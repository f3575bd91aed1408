package regalloc

import (
	"context"
	"fmt"
	"sort"

	"prescount/internal/ir"
)

// coloringBudget is the work units one coloring run may spend: 250 ms'
// worth at a nominal 100 ns a unit. The allocator counts units instead of
// reading the clock, so whether a given function bails to linear scan is a
// pure function of its IR and options, identical run to run and across
// pool sizes. The budget is generous: it exists to bound the worst case,
// not to trim the common one.
const coloringBudget int64 = 2_500_000

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
// one budget unit. When the budget runs out the allocator resets its frame
// and runs linear scan instead — f has not been touched yet, spill slots
// included — reporting ColoringBailed. The context is only consulted every
// coloringCtxStride units: a past deadline aborts the compile with the
// context's error (the daemon's 504 path), it never changes the allocation.
func RunColoring(ctx context.Context, f *ir.Func, opts Options) (*Result, error) {
	return runColoring(ctx, f, opts, coloringBudget)
}

// runColoring is RunColoring with a budget of the given number of units.
func runColoring(ctx context.Context, f *ir.Func, opts Options, budget int64) (*Result, error) {
	fr, err := newFrame(f, opts, true)
	if err != nil {
		return nil, err
	}
	if err := fr.reserveAll(); err != nil {
		return nil, err
	}
	cl := &coloring{frame: fr, budget: budget, ctx: ctx}
	err = cl.color(ir.ClassFP)
	if err == nil {
		err = cl.color(ir.ClassGPR)
	}
	if err == errColoringBudget {
		// Nothing has reached f yet: allocate it afresh by linear scan.
		fr.reset()
		fr.scan(ir.ClassFP)
		fr.scan(ir.ClassGPR)
		fr.res.ColoringBailed = true
	} else if err != nil {
		return nil, err
	}
	return fr.finish()
}

// errColoringBudget is the internal signal that the work budget ran out.
var errColoringBudget = fmt.Errorf("regalloc: coloring work budget exhausted")

type coloring struct {
	*frame

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

// color runs build/simplify/select for one register class.
func (cl *coloring) color(c ir.Class) error {
	// Nodes: vreg indices of this class with non-empty intervals,
	// renumbered densely.
	vregs := cl.regs(c)
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
	for node, r := range vregs {
		for _, s := range cl.lv.IntervalOf(r).Segments {
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

	k := cl.numRegs(c) - len(cl.scratch(c))

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
				ratio := cl.lv.IntervalOf(vregs[i]).Weight / float64(degree[i]+1)
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

	// Select: color in reverse removal order, bank-aware for FP (bestReg).
	color := make([]int, n)
	for i := range color {
		color[i] = -1
	}
	forbidden := make([]bool, cl.numRegs(c))
	free := func(p int) bool { return !forbidden[p] }
	for i := len(stack) - 1; i >= 0; i-- {
		node := stack[i]
		r := vregs[node]
		if err := cl.charge(int64(len(adj[node]) + 1)); err != nil {
			return err
		}
		clear(forbidden)
		for _, nb := range adj[node] {
			if color[nb] >= 0 {
				forbidden[color[nb]] = true
			}
		}
		iv := cl.lv.IntervalOf(r)
		p := cl.bestReg(r, c, iv, free)
		if p < 0 {
			// Uncolorable: spill the whole range through scratch.
			cl.mark(r)
			continue
		}
		color[node] = p
		cl.place(r, p, iv)
	}
	return nil
}
