package liveness

import (
	"slices"
	"sort"

	"prescount/internal/cfg"
	"prescount/internal/ir"
	"prescount/internal/scratch"
)

// Info holds the liveness analysis of one function: a global linearization
// of instructions into slot indexes, per-block live-in/out sets and per-vreg
// live intervals.
//
// The per-block sets are dense vreg-index bitsets (ir.RegSet), and the
// instruction stream is mirrored into struct-of-arrays side tables
// (opcodes plus flattened def/use operands with prefix offsets) built once
// by linearize. The dataflow fixpoint, the interval builder and the spill
// weight pass all stream those flat arrays instead of chasing *ir.Instr
// pointers, and — when Compute runs under a compile's scratch arena — the
// bitset words are arena memory, so a steady-state compile allocates only
// the side tables and the interval slabs.
type Info struct {
	F *ir.Func

	// blockRange maps block ID to [start, end) slot range. Linearization is
	// layout-order contiguous, so the read slot of instruction i in block b
	// is blockRange[b.ID][0] + i*SlotsPerInstr, and the global instruction
	// number of a slot is slot/SlotsPerInstr.
	blockRange [][2]int
	numSlots   int

	// SoA side tables: instruction k (global layout-order number) has
	// opcode ops[k], defs flatDefs[defOff[k]:defOff[k+1]] and uses
	// flatUses[useOff[k]:useOff[k+1]].
	ops            []ir.Op
	defOff, useOff []int32
	flatDefs       []ir.Reg
	flatUses       []ir.Reg

	// LiveIn and LiveOut map block ID to the set of live virtual registers.
	// When computed under a scratch arena the backing words die with the
	// compile; nothing outliving the compile may retain them.
	LiveIn, LiveOut []ir.RegSet

	// Intervals maps vreg dense index to its live interval (nil if the vreg
	// never occurs). Interval structs and their segments are fresh heap —
	// never arena memory — because Options.Record in the allocator hands
	// them to verifier state that outlives the compile.
	Intervals []*Interval
}

// TestHookCompute, when non-nil, observes every Compute invocation. Tests
// use it to assert the analysis cache's hit rate (at most one Compute per
// function and IR generation along the pipeline). It must not be set while
// compilations run concurrently.
var TestHookCompute func(f *ir.Func)

// Compute runs liveness over f, using cf (which must be computed over the
// same function) for use-frequency weighting of spill weights.
func Compute(f *ir.Func, cf *cfg.Info) *Info {
	return ComputeArena(f, cf, nil)
}

// ComputeArena is Compute drawing its bitset words from a compile-scoped
// scratch arena (nil falls back to the heap). The returned Info — its
// LiveIn/LiveOut sets in particular — must not outlive the arena's compile.
func ComputeArena(f *ir.Func, cf *cfg.Info, ar *scratch.Arena) *Info {
	if TestHookCompute != nil {
		TestHookCompute(f)
	}
	lv := &Info{F: f}
	lv.linearize()
	lv.dataflow(ar)
	lv.buildIntervals(cf)
	return lv
}

func (lv *Info) linearize() {
	f := lv.F
	nInstr, nDefs, nUses := 0, 0, 0
	for _, b := range f.Blocks {
		nInstr += len(b.Instrs)
		for _, in := range b.Instrs {
			nDefs += len(in.Defs)
			nUses += len(in.Uses)
		}
	}
	lv.blockRange = make([][2]int, len(f.Blocks))
	lv.ops = make([]ir.Op, nInstr)
	lv.defOff = make([]int32, nInstr+1)
	lv.useOff = make([]int32, nInstr+1)
	lv.flatDefs = make([]ir.Reg, 0, nDefs)
	lv.flatUses = make([]ir.Reg, 0, nUses)
	k, slot := 0, 0
	for _, b := range f.Blocks {
		start := slot
		for _, in := range b.Instrs {
			lv.ops[k] = in.Op
			lv.flatDefs = append(lv.flatDefs, in.Defs...)
			lv.flatUses = append(lv.flatUses, in.Uses...)
			lv.defOff[k+1] = int32(len(lv.flatDefs))
			lv.useOff[k+1] = int32(len(lv.flatUses))
			k++
			slot += SlotsPerInstr
		}
		lv.blockRange[b.ID] = [2]int{start, slot}
	}
	lv.numSlots = slot
}

// ReadSlot returns the read slot of instruction index i in block b.
func (lv *Info) ReadSlot(b *ir.Block, i int) int {
	return lv.blockRange[b.ID][0] + i*SlotsPerInstr
}

// BlockRange returns the [start, end) slot range of b.
func (lv *Info) BlockRange(b *ir.Block) (int, int) {
	r := lv.blockRange[b.ID]
	return r[0], r[1]
}

// NumSlots returns the total number of slots in the function.
func (lv *Info) NumSlots() int { return lv.numSlots }

// instrRange returns the [first, last) global instruction numbers of b.
func (lv *Info) instrRange(b *ir.Block) (int, int) {
	r := lv.blockRange[b.ID]
	return r[0] / SlotsPerInstr, r[1] / SlotsPerInstr
}

func (lv *Info) dataflow(ar *scratch.Arena) {
	f := lv.F
	nb := len(f.Blocks)
	w := (len(f.VRegs) + 63) / 64
	var slab []uint64
	if ar != nil {
		slab = ar.Words(4 * nb * w)
	} else {
		slab = make([]uint64, 4*nb*w)
	}
	// Slab layout: per-block live-in, live-out, gen (upward-exposed uses),
	// kill (defs) word regions, each nb*w long.
	region := func(base, id int) []uint64 {
		o := (base*nb + id) * w
		return slab[o : o+w : o+w]
	}
	lv.LiveIn = make([]ir.RegSet, nb)
	lv.LiveOut = make([]ir.RegSet, nb)
	for _, b := range f.Blocks {
		lv.LiveIn[b.ID] = ir.RegSetFromWords(region(0, b.ID))
		lv.LiveOut[b.ID] = ir.RegSetFromWords(region(1, b.ID))
		gen, kill := region(2, b.ID), region(3, b.ID)
		first, last := lv.instrRange(b)
		for k := first; k < last; k++ {
			for _, u := range lv.flatUses[lv.useOff[k]:lv.useOff[k+1]] {
				if u.IsVirt() {
					i := u.VirtIndex()
					if kill[i>>6]&(1<<(uint(i)&63)) == 0 {
						gen[i>>6] |= 1 << (uint(i) & 63)
					}
				}
			}
			for _, d := range lv.flatDefs[lv.defOff[k]:lv.defOff[k+1]] {
				if d.IsVirt() {
					i := d.VirtIndex()
					kill[i>>6] |= 1 << (uint(i) & 63)
				}
			}
		}
	}
	// Iterate to fixpoint, reverse layout order for fast convergence. The
	// sets only grow, so LiveIn = gen ∪ (LiveOut ∖ kill) can be applied
	// word-parallel with change detection by comparison.
	changed := true
	for changed {
		changed = false
		for i := nb - 1; i >= 0; i-- {
			b := f.Blocks[i]
			out := lv.LiveOut[b.ID].Words()
			for _, s := range b.Succs {
				sin := lv.LiveIn[s.ID].Words()
				for j, sw := range sin {
					if sw&^out[j] != 0 {
						out[j] |= sw
						changed = true
					}
				}
			}
			in := lv.LiveIn[b.ID].Words()
			gen, kill := region(2, b.ID), region(3, b.ID)
			for j := range in {
				nw := gen[j] | (out[j] &^ kill[j])
				if nw != in[j] {
					in[j] = nw
					changed = true
				}
			}
		}
	}
}

func (lv *Info) buildIntervals(cf *cfg.Info) {
	f := lv.F
	nv := len(f.VRegs)
	lv.Intervals = make([]*Interval, nv)
	if nv == 0 {
		return
	}
	// Counting pass: the builder below calls Add at most once per def
	// occurrence, per use occurrence and per live-out membership of a vreg,
	// so those counts bound each interval's segment demand. One Segment
	// slab sized by the bound, cut into per-interval sub-slices with exact
	// capacities, makes every Add an in-place append. A vreg has an
	// interval exactly when its count is non-zero (it occurs somewhere or
	// is live across a block), matching the lazily-created map of the old
	// implementation.
	cnt := make([]int32, nv)
	for _, d := range lv.flatDefs {
		if d.IsVirt() {
			cnt[d.VirtIndex()]++
		}
	}
	for _, u := range lv.flatUses {
		if u.IsVirt() {
			cnt[u.VirtIndex()]++
		}
	}
	for _, b := range f.Blocks {
		lv.LiveOut[b.ID].ForEach(func(r ir.Reg) {
			cnt[r.VirtIndex()]++
		})
	}
	total, live := 0, 0
	for _, c := range cnt {
		if c > 0 {
			live++
			total += int(c)
		}
	}
	segSlab := make([]Segment, total)
	ivSlab := make([]Interval, live)
	off, li := 0, 0
	for v := 0; v < nv; v++ {
		if cnt[v] == 0 {
			continue
		}
		iv := &ivSlab[li]
		li++
		iv.Segments = segSlab[off : off : off+int(cnt[v])]
		off += int(cnt[v])
		lv.Intervals[v] = iv
	}

	// openEnd[v] = slot up to which v is live (exclusive), walking
	// backward; -1 when closed. touched lists the indexes opened in the
	// current block so the reset never scans the whole table.
	openEnd := make([]int32, nv)
	for i := range openEnd {
		openEnd[i] = -1
	}
	touched := make([]int32, 0, 64)
	for _, b := range f.Blocks {
		start, end := lv.BlockRange(b)
		touched = touched[:0]
		lv.LiveOut[b.ID].ForEach(func(r ir.Reg) {
			vi := r.VirtIndex()
			openEnd[vi] = int32(end)
			touched = append(touched, int32(vi))
		})
		first, last := lv.instrRange(b)
		for k := last - 1; k >= first; k-- {
			s := k * SlotsPerInstr
			for _, d := range lv.flatDefs[lv.defOff[k]:lv.defOff[k+1]] {
				if !d.IsVirt() {
					continue
				}
				vi := d.VirtIndex()
				if e := openEnd[vi]; e >= 0 {
					lv.Intervals[vi].Add(s+1, int(e))
					openEnd[vi] = -1
				} else {
					// Dead def: live for just the write slot.
					lv.Intervals[vi].Add(s+1, s+2)
				}
			}
			for _, u := range lv.flatUses[lv.useOff[k]:lv.useOff[k+1]] {
				if !u.IsVirt() {
					continue
				}
				vi := u.VirtIndex()
				if openEnd[vi] < 0 {
					openEnd[vi] = int32(s + 1) // read happens at slot s
					touched = append(touched, int32(vi))
				}
			}
		}
		for _, vi := range touched {
			if e := openEnd[vi]; e >= 0 {
				lv.Intervals[vi].Add(start, int(e))
				openEnd[vi] = -1
			}
		}
	}

	// Spill weights: sum of block frequency per occurrence divided by size.
	for _, b := range f.Blocks {
		freq := cf.Freq(b)
		first, last := lv.instrRange(b)
		for k := first; k < last; k++ {
			for _, d := range lv.flatDefs[lv.defOff[k]:lv.defOff[k+1]] {
				if d.IsVirt() {
					iv := lv.Intervals[d.VirtIndex()]
					iv.Weight += freq
					iv.NumUses++
				}
			}
			for _, u := range lv.flatUses[lv.useOff[k]:lv.useOff[k+1]] {
				if u.IsVirt() {
					iv := lv.Intervals[u.VirtIndex()]
					iv.Weight += freq
					iv.NumUses++
				}
			}
		}
	}
	for _, iv := range lv.Intervals {
		if iv != nil && iv.Size() > 0 {
			iv.Weight /= float64(iv.Size())
		}
	}
}

// IntervalOf returns the live interval of the virtual register r, or nil.
func (lv *Info) IntervalOf(r ir.Reg) *Interval {
	if !r.IsVirt() || r.VirtIndex() >= len(lv.Intervals) {
		return nil
	}
	return lv.Intervals[r.VirtIndex()]
}

// Interfere reports whether two virtual registers have overlapping
// intervals.
func (lv *Info) Interfere(a, b ir.Reg) bool {
	ia, ib := lv.IntervalOf(a), lv.IntervalOf(b)
	return ia != nil && ib != nil && ia.Overlaps(ib)
}

// MaxPressure returns the maximum number of simultaneously live virtual
// registers of class c anywhere in the function: the input to the
// OverallRegPressure() test of Algorithm 1. It is the peak of
// PressureCurve — one pass over the segments, one over the slots, no sort;
// MaxOverlap over the class's intervals is its test reference.
func (lv *Info) MaxPressure(c ir.Class) int {
	return slices.Max(lv.PressureCurve(c))
}

// PressureCurve returns, for each slot, the number of simultaneously live
// class-c virtual registers.
func (lv *Info) PressureCurve(c ir.Class) []int {
	curve := make([]int, lv.NumSlots()+1)
	for i, iv := range lv.Intervals {
		if iv == nil || lv.F.VRegs[i].Class != c {
			continue
		}
		for _, s := range iv.Segments {
			curve[s.Start]++
			if s.End < len(curve) {
				curve[s.End]--
			}
		}
	}
	run := 0
	for i, d := range curve {
		run += d
		curve[i] = run
	}
	return curve
}

// MaxOverlap computes the maximum number of intervals simultaneously live at
// any slot, by endpoint sweep. It is the "bank pressure count" primitive of
// the paper (§III-B): the maximum overlap of register live ranges.
func MaxOverlap(ivs []*Interval) int {
	type event struct {
		at    int
		delta int
	}
	var events []event
	for _, iv := range ivs {
		for _, s := range iv.Segments {
			events = append(events, event{s.Start, +1}, event{s.End, -1})
		}
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return events[i].delta < events[j].delta // process ends before starts
	})
	cur, max := 0, 0
	for _, e := range events {
		cur += e.delta
		if cur > max {
			max = cur
		}
	}
	return max
}
