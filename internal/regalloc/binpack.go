package regalloc

import (
	"container/heap"
	"fmt"

	"prescount/internal/cfg"
	"prescount/internal/ir"
	"prescount/internal/liveness"
	"prescount/internal/rcg"
)

// defaultMaxRescues bounds how many second chances one register receives
// before its remainder stays in memory for good. Two or three rescues catch
// essentially all of the benefit; the cap exists so eviction chains cannot
// degenerate.
const defaultMaxRescues = 4

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
// use (per-block reload discipline keeps the rewrite sound across branches
// and back edges without dominance analysis). Registers never evicted are
// untouched by any of this — they live in one register for their whole
// range exactly as under the greedy allocator.
func RunBinpack(f *ir.Func, opts Options) (*Result, error) {
	opts.Cfg = opts.Cfg.Normalize()
	if err := opts.Cfg.Validate(); err != nil {
		return nil, err
	}
	maxRescues := opts.BinpackMaxRescues
	if maxRescues <= 0 {
		maxRescues = defaultMaxRescues
	}

	bp := &binpack{f: f, opts: opts, maxRescues: maxRescues}
	if ac := opts.Analyses; ac != nil {
		bp.cf = ac.CFG()
		bp.lv = ac.Liveness()
		bp.g = ac.RCG()
	} else {
		bp.cf = cfg.Compute(f)
		bp.lv = liveness.Compute(f, bp.cf)
		bp.g = rcg.Build(f, bp.cf)
	}
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if in.Op == ir.OpCall {
				bp.callSlots = append(bp.callSlots, bp.lv.ReadSlot(b, i))
			}
		}
	}

	// Spilled values flow through reserved scratch registers in the gaps
	// between pieces, exactly as under linear scan — but reserving scratch
	// up front would shrink every bin even for functions that never evict.
	// Pack optimistically first; if any register went piecewise, repack
	// with the affected class's scratch reserved (at most two repacks).
	const (
		fpScratch  = 3
		gprScratch = 2
	)
	reserveFP, reserveGPR := false, false
	for {
		bp.reset()
		if reserveFP {
			for i := opts.Cfg.NumRegs - fpScratch; i < opts.Cfg.NumRegs; i++ {
				bp.fpScratch = append(bp.fpScratch, i)
			}
		}
		if reserveGPR {
			bp.gprScratch = []int{numGPRFile - gprScratch, numGPRFile - 1}
		}
		if err := bp.pack(ir.ClassFP); err != nil {
			return nil, err
		}
		if err := bp.pack(ir.ClassGPR); err != nil {
			return nil, err
		}
		needFP, needGPR := false, false
		for r := range bp.spillSlot {
			if f.VRegs[r.VirtIndex()].Class == ir.ClassFP {
				needFP = true
			} else {
				needGPR = true
			}
		}
		if (needFP && !reserveFP) || (needGPR && !reserveGPR) {
			if needFP && opts.Cfg.NumRegs <= fpScratch {
				return nil, fmt.Errorf("regalloc: %s: FP file of %d registers too small for binpack scratch", f.Name, opts.Cfg.NumRegs)
			}
			reserveFP = reserveFP || needFP
			reserveGPR = reserveGPR || needGPR
			continue
		}
		break
	}

	if opts.Record {
		bp.record()
	}
	bp.materialize()
	f.MarkMutated()
	if ac := opts.Analyses; ac != nil {
		ac.RetainCFG() // spill code and operand rewrites keep control flow
	}
	return bp.res, f.Verify()
}

// bpPiece is one contiguous residency of a register: the (possibly trimmed)
// interval during which the value lives in phys.
type bpPiece struct {
	iv   *liveness.Interval
	phys int
	key  ir.Reg // synthetic union owner key, unique per piece
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
	f    *ir.Func
	opts Options
	res  *Result

	cf *cfg.Info
	lv *liveness.Info
	g  *rcg.Graph

	maxRescues int
	callSlots  []int

	fpScratch, gprScratch []int

	fpUnions, gprUnions []liveness.Union
	// unionIndex finds union members for every union: each piece key
	// sits in one union at a time.
	unionIndex liveness.OwnerIndex

	// pieces holds each register's placed residencies in slot order.
	pieces map[ir.Reg][]bpPiece
	// pieceOwner resolves a union owner key back to its register.
	pieceOwner map[ir.Reg]ir.Reg
	nextKey    int
	// spillSlot marks piecewise registers (evicted or never placed): every
	// def stores, gap sites go through scratch. Slots are numbered from
	// slotBase only at materialize so repacking never leaks slots.
	spillSlot map[ir.Reg]int
	rescues   map[ir.Reg]int
	seq       int
}

func (bp *binpack) reset() {
	bp.res = &Result{
		AssignedPhys: make(map[ir.Reg]int, len(bp.f.VRegs)),
		GroupDispl:   map[int]int{},
	}
	bp.fpUnions = make([]liveness.Union, bp.opts.Cfg.NumRegs)
	bp.gprUnions = make([]liveness.Union, numGPRFile)
	for _, us := range [][]liveness.Union{bp.fpUnions, bp.gprUnions} {
		for i := range us {
			us[i].UseIndex(&bp.unionIndex)
		}
	}
	bp.pieces = make(map[ir.Reg][]bpPiece, len(bp.f.VRegs))
	bp.pieceOwner = map[ir.Reg]ir.Reg{}
	bp.nextKey = len(bp.f.VRegs)
	bp.spillSlot = map[ir.Reg]int{}
	bp.rescues = map[ir.Reg]int{}
	bp.fpScratch = nil
	bp.gprScratch = nil
	bp.seq = 0
}

func (bp *binpack) unions(c ir.Class) []liveness.Union {
	if c == ir.ClassFP {
		return bp.fpUnions
	}
	return bp.gprUnions
}

func (bp *binpack) scratch(c ir.Class) []int {
	if c == ir.ClassFP {
		return bp.fpScratch
	}
	return bp.gprScratch
}

// spansCallSeg reports whether the interval covers any call site.
func (bp *binpack) spansCallIv(iv *liveness.Interval) bool {
	for _, s := range bp.callSlots {
		if iv.Covers(s) {
			return true
		}
	}
	return false
}

// clipAfter returns the part of iv at or after lo (nil when empty). The
// input is never mutated — initial intervals are shared with the analysis
// cache.
func clipAfter(iv *liveness.Interval, lo int) *liveness.Interval {
	out := &liveness.Interval{Weight: iv.Weight, NumUses: iv.NumUses}
	for _, s := range iv.Segments {
		if s.End <= lo {
			continue
		}
		start := s.Start
		if start < lo {
			start = lo
		}
		out.Segments = append(out.Segments, liveness.Segment{Start: start, End: s.End})
	}
	if len(out.Segments) == 0 {
		return nil
	}
	return out
}

// clipBefore returns the part of iv strictly before hi (nil when empty).
func clipBefore(iv *liveness.Interval, hi int) *liveness.Interval {
	out := &liveness.Interval{Weight: iv.Weight, NumUses: iv.NumUses}
	for _, s := range iv.Segments {
		if s.Start >= hi {
			break
		}
		end := s.End
		if end > hi {
			end = hi
		}
		out.Segments = append(out.Segments, liveness.Segment{Start: s.Start, End: end})
	}
	if len(out.Segments) == 0 {
		return nil
	}
	return out
}

// pack runs the binpacking loop for one class.
func (bp *binpack) pack(c ir.Class) error {
	var items bpHeap
	for idx, info := range bp.f.VRegs {
		if info.Class != c {
			continue
		}
		iv := bp.lv.Intervals[idx]
		if iv == nil || iv.Empty() {
			continue
		}
		bp.seq++
		items = append(items, bpItem{start: iv.Start(), r: ir.VReg(idx), iv: iv, seq: bp.seq})
	}
	heap.Init(&items)

	numRegs := bp.opts.Cfg.NumRegs
	if c == ir.ClassGPR {
		numRegs = numGPRFile
	}
	reserved := make([]bool, numRegs)
	for _, s := range bp.scratch(c) {
		reserved[s] = true
	}
	order := gprOrder()
	if c == ir.ClassFP {
		order = allocOrder(bp.opts.Cfg.NumRegs)
	}
	unions := bp.unions(c)

	guard := 0
	maxSteps := 4 * (len(bp.f.VRegs) + 16) * (bp.maxRescues + 2)
	var victimBuf []ir.Reg
	for items.Len() > 0 {
		guard++
		if guard > maxSteps {
			return fmt.Errorf("regalloc: %s: binpacking did not converge", bp.f.Name)
		}
		it := items.pop()
		crossesCall := bp.spansCallIv(it.iv)

		// Free bin, bank-aware: among conflict-free candidates pick the one
		// whose bank holds the least RCG edge weight to already-placed
		// conflict partners of this register; ties resolve to the earlier
		// candidate in the fixed allocation order.
		bestP, bestPen := -1, 0.0
		for _, p := range order {
			if reserved[p] {
				continue
			}
			if crossesCall && callerSaved(c, p, numRegs) {
				continue
			}
			if unions[p].HasConflict(it.iv) {
				continue
			}
			if c == ir.ClassGPR {
				bestP = p
				break
			}
			pen := bp.bankPenalty(it.r, p)
			if bestP < 0 || pen < bestPen {
				bestP, bestPen = p, pen
				if pen == 0 {
					break
				}
			}
		}
		if bestP >= 0 {
			bp.placePiece(it, c, bestP)
			continue
		}

		// Second chance: evict strictly lighter occupants from the cheapest
		// candidate, trim their pieces at this interval's start, and
		// re-queue the remainders for rescue into another register.
		w := it.iv.Weight
		bestP = -1
		bestCost := 0.0
		var bestVictims []ir.Reg
		for _, p := range order {
			if reserved[p] {
				continue
			}
			if crossesCall && callerSaved(c, p, numRegs) {
				continue
			}
			victimBuf = unions[p].ConflictsWithAppend(victimBuf[:0], it.iv)
			ok := true
			cost := 0.0
			for _, key := range victimBuf {
				owner := bp.pieceOwner[key]
				piece := bp.findPiece(owner, key)
				if piece == nil || piece.iv.Start() >= it.start || bp.lv.Intervals[owner.VirtIndex()].Weight >= w {
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
		bp.markPiecewise(it.r)
	}
	return nil
}

// bankPenalty sums the RCG edge weight between r and every conflict partner
// currently holding a piece in the bank of candidate register p.
func (bp *binpack) bankPenalty(r ir.Reg, p int) float64 {
	bank := bp.opts.Cfg.Bank(p)
	pen := 0.0
	for _, n := range bp.g.Neighbors(r) {
		for i := range bp.pieces[n] {
			if bp.opts.Cfg.Bank(bp.pieces[n][i].phys) == bank {
				pen += bp.g.EdgeWeight(r, n)
				break
			}
		}
	}
	return pen
}

func (bp *binpack) findPiece(owner, key ir.Reg) *bpPiece {
	ps := bp.pieces[owner]
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
	bp.pieceOwner[key] = it.r
	bp.unions(c)[p].Insert(key, it.iv)
	ps := bp.pieces[it.r]
	// Keep pieces in slot order (rescues always start after earlier pieces).
	ps = append(ps, bpPiece{iv: it.iv, phys: p, key: key})
	bp.pieces[it.r] = ps
	if c == ir.ClassFP {
		if _, ok := bp.res.AssignedPhys[it.r]; !ok {
			bp.res.AssignedPhys[it.r] = p
		}
	}
	if it.rescue {
		bp.res.Rescues++
	}
}

// evictPiece trims the victim's piece to end before cut, marks the victim
// piecewise, and re-queues the remainder for a second chance when the
// victim has rescues left.
func (bp *binpack) evictPiece(c ir.Class, p int, key ir.Reg, cut int, items *bpHeap) {
	owner := bp.pieceOwner[key]
	piece := bp.findPiece(owner, key)
	full := piece.iv
	prefix := clipBefore(full, cut)
	remainder := clipAfter(full, cut)
	unions := bp.unions(c)
	unions[p].Remove(key)
	if prefix != nil {
		piece.iv = prefix
		unions[p].Insert(key, prefix)
	} else {
		// Cannot happen (eviction requires piece.iv.Start() < cut), kept as
		// a safe fallback: drop the piece entirely.
		ps := bp.pieces[owner]
		for i := range ps {
			if ps[i].key == key {
				bp.pieces[owner] = append(ps[:i], ps[i+1:]...)
				break
			}
		}
		delete(bp.pieceOwner, key)
	}
	bp.markPiecewise(owner)
	bp.res.Evictions++
	if remainder != nil && bp.rescues[owner] < bp.maxRescues {
		bp.rescues[owner]++
		bp.seq++
		items.push(bpItem{start: remainder.Start(), r: owner, iv: remainder, rescue: true, seq: bp.seq})
	}
}

func (bp *binpack) markPiecewise(r ir.Reg) {
	if _, done := bp.spillSlot[r]; done {
		return
	}
	bp.spillSlot[r] = len(bp.spillSlot) // renumbered against f.SpillSlots at materialize
	bp.res.SpilledVRegs++
}

// record fills the verifier's views: one Assignment per placed piece with
// the trimmed interval it actually occupies, the spill slots of piecewise
// registers, and the entry-live set.
func (bp *binpack) record() {
	entry := bp.f.Entry()
	base := bp.f.SpillSlots
	bp.res.SpillSlotOf = make(map[ir.Reg]int, len(bp.spillSlot))
	for idx := range bp.f.VRegs {
		r := ir.VReg(idx)
		for _, pc := range bp.pieces[r] {
			bp.res.Assignments = append(bp.res.Assignments, Assignment{
				Reg: r, Class: bp.f.VRegs[idx].Class, Phys: pc.phys, Interval: pc.iv,
			})
		}
		if s, ok := bp.spillSlot[r]; ok {
			bp.res.SpillSlotOf[r] = base + s
		}
		if bp.lv.LiveIn[entry.ID].Has(r) {
			bp.res.EntryLiveIn = append(bp.res.EntryLiveIn, r)
		}
	}
}

// materialize rewrites the function: piece-covered sites use the piece's
// register, gaps go through scratch, every definition of a piecewise
// register stores to its slot, and each block's first use of a piecewise
// register reloads into the covering register. The per-block reload is what
// keeps the rewrite correct across branches and loop back edges: memory is
// the value's source of truth the moment it went piecewise.
func (bp *binpack) materialize() {
	f := bp.f
	base := f.SpillSlots
	slotOf := func(r ir.Reg) int { return base + bp.spillSlot[r] }
	classOf := func(r ir.Reg) ir.Class { return f.VRegs[r.VirtIndex()].Class }
	encode := func(c ir.Class, p int) ir.Reg {
		if c == ir.ClassFP {
			return ir.FReg(p)
		}
		return ir.XReg(p)
	}
	// pieceAt finds the piece covering a slot (nil for gaps).
	pieceAt := func(r ir.Reg, slot int) *bpPiece {
		ps := bp.pieces[r]
		for i := range ps {
			if ps[i].iv.Covers(slot) {
				return &ps[i]
			}
		}
		return nil
	}
	for _, b := range f.Blocks {
		out := make([]*ir.Instr, 0, len(b.Instrs))
		// inReg tracks, per piecewise register, which physical register
		// holds its value right now within this block (NoReg = memory only).
		inReg := map[ir.Reg]ir.Reg{}
		for i, in := range b.Instrs {
			useSlot := bp.lv.ReadSlot(b, i)
			defSlot := useSlot + 1
			nextScratch := map[ir.Class]int{}
			take := func(c ir.Class) int {
				s := bp.scratch(c)
				k := nextScratch[c] % len(s)
				nextScratch[c]++
				return s[k]
			}
			scratchReloaded := map[ir.Reg]ir.Reg{}
			for k, u := range in.Uses {
				if !u.IsVirt() {
					continue
				}
				c := classOf(u)
				_, piecewise := bp.spillSlot[u]
				if pc := pieceAt(u, useSlot); pc != nil {
					phys := encode(c, pc.phys)
					if piecewise && inReg[u] != phys {
						op := ir.OpFReload
						if c == ir.ClassGPR {
							op = ir.OpIReload
						}
						out = append(out, &ir.Instr{Op: op, Defs: []ir.Reg{phys}, Imm: int64(slotOf(u))})
						bp.res.SpillReloads++
						inReg[u] = phys
					}
					in.Uses[k] = phys
					continue
				}
				// Gap: the value lives only in memory here.
				phys, ok := scratchReloaded[u]
				if !ok {
					p := take(c)
					phys = encode(c, p)
					op := ir.OpFReload
					if c == ir.ClassGPR {
						op = ir.OpIReload
					}
					out = append(out, &ir.Instr{Op: op, Defs: []ir.Reg{phys}, Imm: int64(slotOf(u))})
					bp.res.SpillReloads++
					scratchReloaded[u] = phys
				}
				in.Uses[k] = phys
			}
			out = append(out, in)
			for k, d := range in.Defs {
				if !d.IsVirt() {
					continue
				}
				c := classOf(d)
				_, piecewise := bp.spillSlot[d]
				var phys ir.Reg
				if pc := pieceAt(d, defSlot); pc != nil {
					phys = encode(c, pc.phys)
					if piecewise {
						inReg[d] = phys
					}
				} else {
					phys = encode(c, take(c))
				}
				in.Defs[k] = phys
				if piecewise {
					op := ir.OpFSpill
					if c == ir.ClassGPR {
						op = ir.OpISpill
					}
					out = append(out, &ir.Instr{Op: op, Uses: []ir.Reg{phys}, Imm: int64(slotOf(d))})
					bp.res.SpillStores++
				}
			}
		}
		b.Instrs = out
	}
	f.SpillSlots = base + len(bp.spillSlot)
	f.NumFPRegs = bp.opts.Cfg.NumRegs
}
