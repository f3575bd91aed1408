package regalloc

import (
	"container/heap"
	"fmt"
	"math"

	"prescount/internal/ir"
	"prescount/internal/liveness"
)

// maxRescues bounds how many second chances one register receives before
// its remainder stays in memory for good. Two or three rescues catch
// essentially all of the benefit; the cap exists so eviction chains cannot
// degenerate.
const maxRescues = 4

// RunBinpack allocates f with second-chance binpacking in the style of
// Traub, Holloway and Smith (PLDI 1998): physical registers are bins, live
// intervals are packed in start order, and an interval that finds every
// bin occupied may evict a lighter occupant — whose *remainder* (the part
// of its range from the eviction point on) is re-queued and may be rescued
// into a different register, rather than spilling the whole range.
//
// The packer is bank-aware without a separate assignment phase: among the
// free bins for an FP interval it picks the one minimizing the RCG edge
// weight to conflict partners already resident in the same bank, so two
// registers read by one hot instruction land in different banks when the
// packing permits it.
//
// A register that was evicted anywhere holds its value in memory as the
// source of truth: every definition is followed by a store, and each basic
// block reloads the value into the covering piece's register at its first
// use (the frame's rewrite). Registers never evicted are untouched by any
// of this — they live in one register for their whole range exactly as
// under the greedy allocator.
func RunBinpack(f *ir.Func, opts Options) (*Result, error) {
	fr, err := newFrame(f, opts, true)
	if err != nil {
		return nil, err
	}
	bp := &binpack{frame: fr}
	// Spilled values flow through reserved scratch registers in the gaps
	// between pieces, but reserving scratch up front would shrink every
	// bin even for functions that never evict. Pack optimistically first;
	// if a class marked any register, reserve its scratch and repack (at
	// most two repacks).
	for again := true; again; {
		bp.reset()
		if err := bp.pack(ir.ClassFP); err != nil {
			return nil, err
		}
		if err := bp.pack(ir.ClassGPR); err != nil {
			return nil, err
		}
		again = false
		for _, c := range []ir.Class{ir.ClassFP, ir.ClassGPR} {
			if fr.scratch(c) == nil && fr.marked(c) {
				if err := fr.reserve(c); err != nil {
					return nil, err
				}
				again = true
			}
		}
	}
	return fr.finish()
}

// bpItem is one packing work unit: a register's interval (or an evicted
// remainder awaiting its second chance).
type bpItem struct {
	start  int
	r      ir.Reg
	iv     *liveness.Interval
	rescue bool
	seq    int
}

// bpHeap pops items by (start, register, insertion sequence) — a total
// order, so the packing is deterministic.
type bpHeap []bpItem

func (h bpHeap) Len() int { return len(h) }
func (h bpHeap) Less(i, j int) bool {
	if h[i].start != h[j].start {
		return h[i].start < h[j].start
	}
	if h[i].r != h[j].r {
		return h[i].r < h[j].r
	}
	return h[i].seq < h[j].seq
}
func (h bpHeap) Swap(i, j int)   { h[i], h[j] = h[j], h[i] }
func (h *bpHeap) Push(x any)     { *h = append(*h, x.(bpItem)) }
func (h *bpHeap) Pop() any       { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
func (h *bpHeap) push(it bpItem) { heap.Push(h, it) }
func (h *bpHeap) pop() bpItem    { return heap.Pop(h).(bpItem) }

type binpack struct {
	*frame

	fpUnions, gprUnions []liveness.Union
	// unionIndex finds union members for every union: each piece key
	// sits in one union at a time.
	unionIndex liveness.OwnerIndex

	// owner resolves a piece's union key back to its register.
	owner   vregTable[ir.Reg]
	nextKey int
	rescues vregTable[int]
	seq     int
}

func (bp *binpack) reset() {
	bp.frame.reset()
	bp.fpUnions = make([]liveness.Union, bp.opts.Cfg.NumRegs)
	bp.gprUnions = make([]liveness.Union, numGPRFile)
	for _, us := range [][]liveness.Union{bp.fpUnions, bp.gprUnions} {
		for i := range us {
			us[i].UseIndex(&bp.unionIndex)
		}
	}
	bp.nextKey = len(bp.f.VRegs)
	bp.owner.reset(bp.nextKey)
	bp.rescues.reset(bp.nextKey)
	bp.seq = 0
}

func (bp *binpack) unions(c ir.Class) []liveness.Union {
	if c == ir.ClassFP {
		return bp.fpUnions
	}
	return bp.gprUnions
}

// clip returns the part of iv in [lo, hi) (nil when empty). The input is
// never mutated — initial intervals are shared with the analysis cache.
func clip(iv *liveness.Interval, lo, hi int) *liveness.Interval {
	out := &liveness.Interval{Weight: iv.Weight, NumUses: iv.NumUses}
	for _, s := range iv.Segments {
		if s.Start, s.End = max(s.Start, lo), min(s.End, hi); s.Start < s.End {
			out.Segments = append(out.Segments, s)
		}
	}
	if len(out.Segments) == 0 {
		return nil
	}
	return out
}

// pack runs the binpacking loop for one class.
func (bp *binpack) pack(c ir.Class) error {
	var items bpHeap
	for _, r := range bp.regs(c) {
		iv := bp.lv.IntervalOf(r)
		bp.seq++
		items = append(items, bpItem{start: iv.Start(), r: r, iv: iv, seq: bp.seq})
	}
	heap.Init(&items)

	unions := bp.unions(c)

	guard := 0
	maxSteps := 4 * (len(bp.f.VRegs) + 16) * (maxRescues + 2)
	var victimBuf []ir.Reg
	for items.Len() > 0 {
		guard++
		if guard > maxSteps {
			return fmt.Errorf("regalloc: %s: binpacking did not converge", bp.f.Name)
		}
		it := items.pop()
		// A free bin, chosen bank-aware.
		if p := bp.bestReg(it.r, c, it.iv, func(p int) bool { return !unions[p].HasConflict(it.iv) }); p >= 0 {
			bp.placePiece(it, c, p)
			continue
		}

		// Second chance: evict strictly lighter occupants from the cheapest
		// candidate, trim their pieces at this interval's start, and
		// re-queue the remainders for rescue into another register.
		w := it.iv.Weight
		crossesCall := bp.spansCall(it.iv)
		bestP, bestCost := -1, 0.0
		var bestVictims []ir.Reg
		for _, p := range bp.order(c) {
			if !bp.legal(c, p, crossesCall) {
				continue
			}
			victimBuf = unions[p].ConflictsWithAppend(victimBuf[:0], it.iv)
			ok := true
			cost := 0.0
			for _, key := range victimBuf {
				owner := bp.owner.get(key)
				piece := bp.findPiece(owner, key)
				if piece.iv.Start() >= it.start || bp.lv.Intervals[owner.VirtIndex()].Weight >= w {
					ok = false
					break
				}
				cost += bp.lv.Intervals[owner.VirtIndex()].Weight
			}
			if !ok {
				continue
			}
			if bestP < 0 || cost < bestCost {
				bestP, bestCost = p, cost
				bestVictims = append(bestVictims[:0], victimBuf...)
			}
		}
		if bestP >= 0 {
			for _, key := range bestVictims {
				bp.evictPiece(c, bestP, key, it.start, &items)
			}
			bp.placePiece(it, c, bestP)
			continue
		}

		// No bin and nothing lighter to evict: the value stays in memory
		// for this stretch (and entirely, if this was its original item).
		bp.mark(it.r)
	}
	return nil
}

func (bp *binpack) findPiece(owner, key ir.Reg) *piece {
	ps := bp.pieces.get(owner)
	for i := range ps {
		if ps[i].key == key {
			return &ps[i]
		}
	}
	return nil
}

func (bp *binpack) placePiece(it bpItem, c ir.Class, p int) {
	key := ir.VReg(bp.nextKey)
	bp.nextKey++
	bp.owner.set(key, it.r)
	bp.unions(c)[p].Insert(key, it.iv)
	// Pieces stay in slot order: a rescue starts after the earlier pieces.
	bp.place(it.r, p, it.iv).key = key
	if it.rescue {
		bp.res.Rescues++
	}
}

// evictPiece trims the victim's piece to end before cut, marks the victim,
// and re-queues the remainder for a second chance when the victim has
// rescues left. Eviction needs the piece to start before cut, so the
// trimmed piece is never empty.
func (bp *binpack) evictPiece(c ir.Class, p int, key ir.Reg, cut int, items *bpHeap) {
	owner := bp.owner.get(key)
	pc := bp.findPiece(owner, key)
	full := pc.iv
	unions := bp.unions(c)
	unions[p].Remove(key)
	pc.iv = clip(full, math.MinInt, cut)
	unions[p].Insert(key, pc.iv)
	bp.mark(owner)
	bp.res.Evictions++
	if remainder := clip(full, cut, math.MaxInt); remainder != nil && bp.rescues.get(owner) < maxRescues {
		bp.rescues.set(owner, bp.rescues.get(owner)+1)
		bp.seq++
		items.push(bpItem{start: remainder.Start(), r: owner, iv: remainder, rescue: true, seq: bp.seq})
	}
}
