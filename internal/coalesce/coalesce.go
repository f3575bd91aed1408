// Package coalesce implements pre-allocation register coalescing: it
// removes register-to-register copies whose source and destination live
// ranges do not interfere, merging the two virtual registers. It is the
// first phase of the paper's Figure 4 pipeline; the SDG-based subgroup
// splitting phase deliberately runs after it so that splitting copies are
// not re-coalesced away.
package coalesce

import (
	"prescount/internal/analysis"
	"prescount/internal/ir"
	"prescount/internal/liveness"
)

// Stats reports what coalescing did.
type Stats struct {
	// Candidates is the number of virtual-to-virtual copies inspected.
	Candidates int
	// Coalesced is the number of copies removed.
	Coalesced int
}

// Run coalesces copies in f in place and returns statistics. It iterates
// until no more copies can be removed (merging two registers can make
// another copy coalescible).
func Run(f *ir.Func) Stats { return RunCached(f, analysis.New(f)) }

// RunCached is Run consuming (and maintaining) the pipeline's analysis
// cache: a round reads the cached liveness once it meets a
// virtual-to-virtual copy, so a round with none computes no liveness, and
// mutating rounds mark the function mutated while retaining the CFG —
// coalescing removes copies and renames operands but never edits control
// flow.
func RunCached(f *ir.Func, ac *analysis.Cache) Stats {
	var st Stats
	for round := 0; ; round++ {
		n, cands := runOnce(f, ac)
		if round == 0 {
			st.Candidates = cands
		}
		st.Coalesced += n
		if n == 0 {
			return st
		}
		f.MarkMutated()
		ac.RetainCFG()
	}
}

func runOnce(f *ir.Func, ac *analysis.Cache) (coalesced, candidates int) {
	var lv *liveness.Info // read from ac at the round's first candidate
	// alias maps a merged-away register to its representative.
	alias := make(map[ir.Reg]ir.Reg)
	find := func(r ir.Reg) ir.Reg {
		for {
			a, ok := alias[r]
			if !ok {
				return r
			}
			r = a
		}
	}

	// Live intervals of merged groups, updated as we merge.
	merged := make(map[ir.Reg]*liveness.Interval)
	intervalOf := func(r ir.Reg) *liveness.Interval {
		if iv, ok := merged[r]; ok {
			return iv
		}
		return lv.IntervalOf(r)
	}

	removed := make(map[*ir.Instr]bool)
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if !in.Op.IsCopy() {
				continue
			}
			dst, src := in.Defs[0], in.Uses[0]
			if !dst.IsVirt() || !src.IsVirt() {
				continue
			}
			candidates++
			if lv == nil {
				lv = ac.Liveness()
			}
			rd, rs := find(dst), find(src)
			if rd == rs {
				// Already identical: the copy is trivially dead.
				removed[in] = true
				coalesced++
				continue
			}
			ivd, ivs := intervalOf(rd), intervalOf(rs)
			if ivd == nil || ivs == nil {
				continue
			}
			// The copy's own def/use adjacency is fine: the source read
			// ends where the destination def starts. Any other overlap
			// between the two ranges makes the merge unsound.
			if overlapsExceptAtCopy(ivd, ivs, lv.ReadSlot(b, i)) {
				continue
			}
			// Merge rd into rs.
			union := &liveness.Interval{}
			for _, s := range ivs.Segments {
				union.Add(s.Start, s.End)
			}
			for _, s := range ivd.Segments {
				union.Add(s.Start, s.End)
			}
			merged[rs] = union
			delete(merged, rd)
			alias[rd] = rs
			removed[in] = true
			coalesced++
		}
	}
	if coalesced == 0 {
		return 0, candidates
	}

	// Rewrite operands and drop removed copies.
	for _, b := range f.Blocks {
		out := b.Instrs[:0]
		for _, in := range b.Instrs {
			if removed[in] {
				continue
			}
			for k, u := range in.Uses {
				if u.IsVirt() {
					in.Uses[k] = find(u)
				}
			}
			for k, d := range in.Defs {
				if d.IsVirt() {
					in.Defs[k] = find(d)
				}
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
	return coalesced, candidates
}

// overlapsExceptAtCopy reports whether the two intervals overlap anywhere
// that is not explained by the copy at read slot s itself. The destination
// is defined at s+1; the source read ends at s+1. If the only contact is
// that the source's segment ends exactly at s+1 where the destination
// begins, the merge is safe.
func overlapsExceptAtCopy(dst, src *liveness.Interval, s int) bool {
	if !dst.Overlaps(src) {
		return false
	}
	// Cheap exactness: count overlapping slot width; if the overlap is
	// wider than the single write slot of the copy, reject. A one-slot
	// overlap at exactly s+1 happens when the source stays live past the
	// copy (it is then NOT safe either, because dst and src diverge), so
	// any true overlap rejects.
	return true
}
