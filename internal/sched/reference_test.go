package sched

import "prescount/internal/ir"

// referenceOrder is the scheduler's original selection loop, kept as the
// differential oracle for the heap-driven one: map-keyed register state and
// an O(n × ready) scan of the ready list per placed instruction. It returns
// the scheduled order of b's body (every instruction but the terminator) as
// indexes into the original body, or nil for blocks too small to schedule.
// It does not modify b.
func referenceOrder(f *ir.Func, b *ir.Block) []int32 {
	n := len(b.Instrs)
	if n <= 2 {
		return nil
	}
	body := b.Instrs[:n-1]
	succs := make([][]int32, len(body))
	indeg := make([]int32, len(body))
	useHead := map[ir.Reg]int32{}
	var useNext, useInstr []int32
	lastDef := map[ir.Reg]int32{}
	remUses := map[ir.Reg]int32{}
	var memOps []int32

	addDep := func(from, to int) {
		if from != to {
			succs[from] = append(succs[from], int32(to))
			indeg[to]++
		}
	}
	lastBarrier := -1
	for i, in := range body {
		if in.Op == ir.OpCall {
			for j := lastBarrier + 1; j < i; j++ {
				addDep(j, i)
			}
			lastBarrier = i
		} else if lastBarrier >= 0 {
			addDep(lastBarrier, i)
		}
		for _, u := range in.Uses {
			if d, ok := lastDef[u]; ok {
				addDep(int(d), i)
			}
			head, ok := useHead[u]
			if !ok {
				head = -1
			}
			useNext = append(useNext, head)
			useInstr = append(useInstr, int32(i))
			useHead[u] = int32(len(useNext) - 1)
		}
		for _, d := range in.Defs {
			if pd, ok := lastDef[d]; ok {
				addDep(int(pd), i)
			}
			if head, ok := useHead[d]; ok {
				for node := head; node >= 0; node = useNext[node] {
					addDep(int(useInstr[node]), i)
				}
				delete(useHead, d)
			}
			lastDef[d] = int32(i)
		}
		if isMem(in.Op) {
			for _, m := range memOps {
				if mayAlias(body[m], in) {
					addDep(int(m), i)
				}
			}
			memOps = append(memOps, int32(i))
		}
	}

	for _, in := range body {
		for _, u := range in.Uses {
			if u.IsVirt() {
				remUses[u]++
			}
		}
	}
	var ready []int32
	for i := range body {
		if indeg[i] == 0 {
			ready = append(ready, int32(i))
		}
	}
	score := func(i int32) (fpDelta, gprDelta int) {
		in := body[i]
		for _, d := range in.Defs {
			if !d.IsVirt() {
				continue
			}
			if f.RegClass(d) == ir.ClassFP {
				fpDelta++
			} else {
				gprDelta++
			}
		}
		uses := in.Uses
		for k, u := range uses {
			if !u.IsVirt() {
				continue
			}
			cnt := int32(0)
			dup := false
			for k2, u2 := range uses {
				if u2 != u {
					continue
				}
				if k2 < k {
					dup = true
					break
				}
				cnt++
			}
			if dup || remUses[u] != cnt {
				continue
			}
			if f.RegClass(u) == ir.ClassFP {
				fpDelta--
			} else {
				gprDelta--
			}
		}
		return
	}
	var order []int32
	for len(ready) > 0 {
		best, bi := ready[0], 0
		bf, bg := score(best)
		for k := 1; k < len(ready); k++ {
			cand := ready[k]
			cf, cg := score(cand)
			if cf < bf || (cf == bf && cg < bg) ||
				(cf == bf && cg == bg && cand < best) {
				best, bi, bf, bg = cand, k, cf, cg
			}
		}
		ready = append(ready[:bi], ready[bi+1:]...)
		order = append(order, best)
		for _, u := range body[best].Uses {
			if u.IsVirt() {
				remUses[u]--
			}
		}
		for _, s := range succs[best] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return order
}
