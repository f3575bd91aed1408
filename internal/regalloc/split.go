package regalloc

import (
	"math"
	"slices"
	"sort"

	"prescount/internal/cfg"
	"prescount/internal/ir"
	"prescount/internal/liveness"
)

// splitPlan records one committed live-range split: uses of parent inside
// [start, end) are served by child, which receives its value from a copy
// (or reload, if the parent later spills) inserted in the preheader.
// exits are the loop's exit blocks: subtracting the loop range from the
// parent's interval lets other values occupy the parent's register inside
// the loop, so when the parent keeps a register, the value must be copied
// back from the child at every exit the parent is live into — without it,
// a post-loop use reads whatever the loop left in the parent's register.
type splitPlan struct {
	parent, child ir.Reg
	start, end    int
	preheader     *ir.Block
	exits         []*ir.Block
}

// loopInfo is one loop as split decisions read it: its slot range, its
// member blocks in layout order with a block-ID bitset for membership
// tests, its preheader and its exits. All of it derives from Loop.Blocks,
// the CFG edges and liveness's block ranges, none of which change while the
// allocator runs, so buildLoops computes it once per run instead of once
// per split attempt.
type loopInfo struct {
	loop       *cfg.Loop
	start, end int
	blocks     []*ir.Block
	member     []uint64
	preheader  *ir.Block
	exits      []*ir.Block
}

// has reports whether b belongs to the loop.
func (li *loopInfo) has(b *ir.Block) bool {
	w := b.ID >> 6
	return w < len(li.member) && li.member[w]&(1<<(uint(b.ID)&63)) != 0
}

// buildLoops fills a.loops, once per run, in the order pickSplitLoop
// considers loops: each loop after its children.
func (a *allocator) buildLoops() {
	a.loopsBuilt = true
	words := 0
	for _, b := range a.f.Blocks {
		words = max(words, b.ID>>6+1)
	}
	var visit func(l *cfg.Loop)
	visit = func(l *cfg.Loop) {
		for _, child := range l.Children {
			visit(child)
		}
		li := loopInfo{loop: l, start: math.MaxInt32, member: make([]uint64, words)}
		for _, b := range a.f.Blocks {
			if !l.Blocks[b.ID] {
				continue
			}
			li.blocks = append(li.blocks, b)
			li.member[b.ID>>6] |= 1 << (uint(b.ID) & 63)
			s, e := a.lv.BlockRange(b)
			li.start = min(li.start, s)
			li.end = max(li.end, e)
		}
		li.preheader = preheaderOf(&li)
		li.exits = loopExits(&li)
		a.loops = append(a.loops, li)
	}
	for _, l := range a.cf.Loops {
		visit(l)
	}
}

// trySplitAroundLoop is the allocator's last resort before spilling a
// register: if r is live through a loop, is used inside it, and is neither
// defined there nor crossing a call there, the loop region is split off
// into a fresh child register. The child is placed immediately (the split
// aborts if no register is free for the loop range), inherits r's bank and
// subgroup through the pseudoParent table — the paper's requirement that
// split-generated registers keep their assignment (Algorithm 2) — and the
// shrunken parent goes back on the queue, where it often fits or, at
// worst, spills only its cold remainder.
func (a *allocator) trySplitAroundLoop(r ir.Reg, c ir.Class) bool {
	if a.pseudoParent.get(r) != ir.NoReg {
		return false // split/spill products are never re-split
	}
	if a.splitDone.Has(r) {
		return false // one split per register keeps ranges disjoint
	}
	iv := a.intervalOf(r)
	if iv == nil || iv.Empty() {
		return false
	}

	best := a.pickSplitLoop(r, iv)
	if best == nil {
		return false
	}
	ls, le := best.start, best.end

	// Build the child interval and verify it can be placed right now in a
	// free register; otherwise splitting would only defer a spill.
	child := a.f.NewVReg(c)
	civ := &liveness.Interval{}
	civ.Add(ls, le)
	civ.Weight = iv.Weight
	a.override.set(child, civ)
	a.pinned.Add(child) // placed once, never evicted
	a.pseudoParent.set(child, r)

	// The child is pinned (never evicted), so committing it must leave
	// spare capacity in the loop region for spill pseudo-registers of
	// other values: an instruction can demand up to three reloads plus a
	// store at once.
	const reserve = 4
	phys, free := -1, 0
	for _, p := range a.candidates(child, c) {
		if fx := a.fixedOf(c, p); fx != nil && fx.Overlaps(civ) {
			continue
		}
		if !a.unions(c)[p].HasConflict(civ) {
			if phys < 0 {
				phys = p
			}
			free++
			if free > reserve {
				break
			}
		}
	}
	if phys < 0 || free <= reserve {
		// Abort: undo the tentative child.
		a.override.set(child, nil)
		a.pinned.Remove(child)
		a.pseudoParent.set(child, ir.NoReg)
		return false
	}
	a.place(child, c, phys)

	// Shrink the parent to its cold remainder and requeue it.
	reduced := subtractRange(iv, ls, le)
	reduced.Weight = iv.Weight
	reduced.NumUses = iv.NumUses
	a.override.set(r, reduced)
	a.splitDone.Add(r)
	a.splits.set(r, append(a.splits.get(r), splitPlan{
		parent:    r,
		child:     child,
		start:     ls,
		end:       le,
		preheader: best.preheader,
		exits:     best.exits,
	}))
	a.res.LoopSplits++
	if !reduced.Empty() {
		a.queue.push(r, a.priorityOf(r))
	}
	return true
}

// pickSplitLoop returns the hottest loop suitable for splitting r, or nil.
func (a *allocator) pickSplitLoop(r ir.Reg, iv *liveness.Interval) *loopInfo {
	if !a.loopsBuilt {
		a.buildLoops()
	}
	var best *loopInfo
	bestFreq := 0.0
	for i := range a.loops {
		li := &a.loops[i]
		if !a.splitSuitable(r, iv, li) {
			continue
		}
		if f := a.cf.Freq(li.loop.Header); f > bestFreq {
			best, bestFreq = li, f
		}
	}
	return best
}

// splitSuitable checks the structural preconditions for splitting r around
// the loop.
func (a *allocator) splitSuitable(r ir.Reg, iv *liveness.Interval, li *loopInfo) bool {
	// Live through the whole loop, with something left outside.
	ls, le := li.start, li.end
	if !iv.Covers(ls) || !iv.Covers(le-1) || iv.Start() >= ls || iv.End() <= le {
		return false
	}
	if li.preheader == nil {
		return false
	}
	usesIn := 0
	for _, b := range li.blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				return false // child would need a callee-saved register anyway
			}
			for _, d := range in.Defs {
				if d == r {
					return false // value changes inside: copy-back needed
				}
			}
			for _, u := range in.Uses {
				if u == r {
					usesIn++
				}
			}
		}
	}
	if usesIn == 0 {
		return false
	}
	// Every exit the value is live into receives a copy-back from the
	// child (see materializeSplits); that copy is only correct when the
	// exit is reached exclusively from inside the loop, so a side entry
	// into such an exit block rules the split out.
	for _, eb := range li.exits {
		es, _ := a.lv.BlockRange(eb)
		if !iv.Covers(es) {
			continue
		}
		for _, p := range eb.Preds {
			if !li.has(p) {
				return false
			}
		}
	}
	return true
}

// loopExits returns the blocks outside the loop that some block of it
// branches to, in block-ID order.
func loopExits(li *loopInfo) []*ir.Block {
	var exits []*ir.Block
	for _, b := range li.blocks {
		for _, s := range b.Succs {
			if !li.has(s) && !slices.Contains(exits, s) {
				exits = append(exits, s)
			}
		}
	}
	sort.Slice(exits, func(i, j int) bool { return exits[i].ID < exits[j].ID })
	return exits
}

// preheaderOf returns the unique out-of-loop predecessor of the loop
// header, or nil.
func preheaderOf(li *loopInfo) *ir.Block {
	var pre *ir.Block
	for _, p := range li.loop.Header.Preds {
		if li.has(p) {
			continue
		}
		if pre != nil {
			return nil // multiple entries
		}
		pre = p
	}
	return pre
}

// subtractRange returns a copy of iv with [start, end) removed.
func subtractRange(iv *liveness.Interval, start, end int) *liveness.Interval {
	out := &liveness.Interval{}
	for _, s := range iv.Segments {
		if s.End <= start || s.Start >= end {
			out.Add(s.Start, s.End)
			continue
		}
		if s.Start < start {
			out.Add(s.Start, start)
		}
		if s.End > end {
			out.Add(end, s.End)
		}
	}
	return out
}

// splitRangeFor returns the child register serving a use of r at the given
// slot, or NoReg.
func (a *allocator) splitChildAt(r ir.Reg, slot int) ir.Reg {
	for _, sp := range a.splits.get(r) {
		if slot >= sp.start && slot < sp.end {
			return sp.child
		}
	}
	return ir.NoReg
}

// materializeSplits inserts the preheader copies for every committed
// split. Runs inside materialize, after operand rewriting: if the parent
// kept a register the copy is a register move; if the parent spilled, the
// child is initialized straight from the stack slot (or by
// rematerializing the constant).
func (a *allocator) materializeSplits() {
	// Iterate parents in register order: several splits can share one
	// preheader, so the order fixes the inserted initializer sequence.
	for _, plans := range a.splits.v {
		for _, sp := range plans {
			childPhys := a.physOf(sp.child)
			var init *ir.Instr
			switch {
			case !a.spilled.Has(sp.parent):
				op := ir.OpFMov
				if a.classOf(sp.parent) == ir.ClassGPR {
					op = ir.OpIMov
				}
				init = &ir.Instr{Op: op, Defs: []ir.Reg{childPhys}, Uses: []ir.Reg{a.physOf(sp.parent)}}
			case a.remat.get(sp.parent) != nil:
				def := a.remat.get(sp.parent)
				init = &ir.Instr{Op: def.Op, Defs: []ir.Reg{childPhys}, Imm: def.Imm, FImm: def.FImm}
			default:
				op := ir.OpFReload
				if a.classOf(sp.parent) == ir.ClassGPR {
					op = ir.OpIReload
				}
				init = &ir.Instr{Op: op, Defs: []ir.Reg{childPhys}, Imm: int64(a.spillSlot.get(sp.parent) - 1)}
				a.res.SpillReloads++
			}
			term := len(sp.preheader.Instrs) - 1
			sp.preheader.InsertBefore(term, init)

			// Copy-back: a register-resident parent must recover its value
			// from the child at every exit it is live into — the loop body
			// may have hosted other values in the parent's register. A
			// spilled parent needs nothing: its slot was stored at the
			// definition and the value never changes inside the loop.
			if a.spilled.Has(sp.parent) {
				continue
			}
			piv := a.intervalOf(sp.parent)
			for _, eb := range sp.exits {
				es, _ := a.lv.BlockRange(eb)
				if piv == nil || !piv.Covers(es) {
					continue
				}
				op := ir.OpFMov
				if a.classOf(sp.parent) == ir.ClassGPR {
					op = ir.OpIMov
				}
				eb.InsertBefore(0, &ir.Instr{
					Op:   op,
					Defs: []ir.Reg{a.physOf(sp.parent)},
					Uses: []ir.Reg{childPhys},
				})
			}
		}
	}
}

// physOf encodes the physical register assigned to a virtual register.
func (a *allocator) physOf(r ir.Reg) ir.Reg {
	p, _ := a.physIndex(r)
	if a.classOf(r) == ir.ClassFP {
		return ir.FReg(p)
	}
	return ir.XReg(p)
}
