package tv

import "prescount/internal/ir"

// compareBlocks checks every reachable block's observations — call
// counts, anchor computations, stores, branch conditions and outgoing
// memory state — between the reference and the allocated execution, in
// reverse postorder so the first diagnostic points at the divergence
// closest to its root cause.
func compareBlocks(ref, al *exec) error {
	for i, rb := range ref.rpo {
		ab := al.rpo[i]
		rfx, afx := &ref.facts[rb.ID], &al.facts[ab.ID]
		if rfx.calls != afx.calls {
			return ir.Diagf(RuleCall, al.f.Name, ab.Name, -1,
				"allocated block performs %d calls, reference performs %d", afx.calls, rfx.calls)
		}
		if err := compareAnchors(ref, al, rb, ab); err != nil {
			return err
		}
		if err := compareStores(ref, al, rb, ab); err != nil {
			return err
		}
		if rfx.condVN != afx.condVN {
			rule, note := al.classify(RuleBranch, afx.condVN, ab.Name)
			return ir.Diagf(rule, al.f.Name, ab.Name, len(ab.Instrs)-1,
				"branch condition diverges from the reference%s", note)
		}
		if rfx.memExit != afx.memExit {
			return ir.Diagf(RuleMem, al.f.Name, ab.Name, -1,
				"outgoing memory state diverges from the reference (an earlier store or join differs)")
		}
	}
	return nil
}

// compareAnchors checks that the allocated block computes exactly the
// reference block's multiset of anchor values. An allocated anchor with
// no reference counterpart means some operand resolved to the wrong
// value — the generic T001 miscompile, refined to T004/T005/T006/T008
// when the offending operand is an undefined, clobbered or clashing
// value. A reference anchor with no allocated counterpart is T009.
func compareAnchors(ref, al *exec, rb, ab *ir.Block) error {
	rfx, afx := &ref.facts[rb.ID], &al.facts[ab.ID]
	// Report the earliest diverging anchor (instruction order): map
	// iteration order must not pick the witness, or the rule
	// classification itself becomes nondeterministic.
	bad := uint64(0)
	for vn, cnt := range afx.anchors {
		if cnt <= rfx.anchors[vn] {
			continue
		}
		if bad == 0 || afx.detail[vn].instr < afx.detail[bad].instr {
			bad = vn
		}
	}
	if vn := bad; vn != 0 {
		cnt := afx.anchors[vn]
		d := afx.detail[vn]
		if rfx.anchors[vn] > 0 {
			return ir.Diagf(RuleValue, al.f.Name, ab.Name, d.instr,
				"%s computed %d times, reference computes it %d times", d.op, cnt, rfx.anchors[vn])
		}
		// Name the operand that differs from a reference computation of
		// the same opcode, then refine by the nature of its value.
		if oi, ok := divergingOperand(rfx, d); ok {
			rule, note := al.classify(RuleValue, d.opnds[oi], ab.Name)
			return ir.Diagf(rule, al.f.Name, ab.Name, d.instr,
				"operand %d of %s resolves to a value different from the reference computation%s",
				oi, d.op, note)
		}
		for oi, ov := range d.opnds {
			if rule, note := al.classify(RuleValue, ov, ab.Name); rule != RuleValue {
				return ir.Diagf(rule, al.f.Name, ab.Name, d.instr,
					"operand %d of %s resolves to a wrong value%s", oi, d.op, note)
			}
		}
		return ir.Diagf(RuleValue, al.f.Name, ab.Name, d.instr,
			"%s computes a value absent from the reference block", d.op)
	}
	missing := uint64(0)
	for vn, cnt := range rfx.anchors {
		if cnt <= afx.anchors[vn] {
			continue
		}
		if missing == 0 || rfx.detail[vn].instr < rfx.detail[missing].instr {
			missing = vn
		}
	}
	if missing != 0 {
		d := rfx.detail[missing]
		return ir.Diagf(RuleAnchor, al.f.Name, ab.Name, -1,
			"reference computation %s (reference #%d) has no allocated counterpart", d.op, d.instr)
	}
	return nil
}

// divergingOperand finds a reference anchor with the same opcode and
// operand count as d and returns the first operand index where the two
// disagree, for a more precise T001 message.
func divergingOperand(rfx *blockFacts, d anchorInfo) (int, bool) {
	// Earliest same-shape reference anchor first: rfx.detail is a map, and
	// the witness choice must not depend on its iteration order.
	var best *anchorInfo
	for _, rd := range rfx.detail {
		if rd.op != d.op || len(rd.opnds) != len(d.opnds) {
			continue
		}
		if best == nil || rd.instr < best.instr {
			rd := rd
			best = &rd
		}
	}
	if best != nil {
		for i := range d.opnds {
			if d.opnds[i] != best.opnds[i] {
				return i, true
			}
		}
	}
	return 0, false
}

// compareStores checks the block's stores two ways. First the multiset
// of (base, offset, value) triples must match — a missing, extra or
// wrong-valued store is T002. Second, every ordered pair of distinct
// may-aliasing triples must appear in the same relative order in both
// programs: the scheduler is free to reorder provably disjoint stores
// (same base, different offset), so only the pairs whose order is
// observable are compared.
func compareStores(ref, al *exec, rb, ab *ir.Block) error {
	rfx, afx := &ref.facts[rb.ID], &al.facts[ab.ID]
	type triple struct {
		base uint64
		imm  int64
		val  uint64
	}
	rset := map[triple]int{}
	for _, s := range rfx.stores {
		rset[triple{s.base, s.imm, s.val}]++
	}
	for _, s := range afx.stores {
		k := triple{s.base, s.imm, s.val}
		if rset[k] == 0 {
			rule, note := al.classify(RuleStore, s.val, ab.Name)
			return ir.Diagf(rule, al.f.Name, ab.Name, s.instr,
				"store to [base+%d] has no reference counterpart%s", s.imm, note)
		}
		rset[k]--
	}
	for k, n := range rset {
		if n > 0 {
			return ir.Diagf(RuleStore, al.f.Name, ab.Name, -1,
				"reference stores to [base+%d] %d more time(s) than the allocated block", k.imm, n)
		}
	}
	rpairs, apairs := orderedPairs(rfx.stores), orderedPairs(afx.stores)
	if len(rpairs) != len(apairs) {
		return ir.Diagf(RuleStore, al.f.Name, ab.Name, -1,
			"may-aliasing stores were reordered relative to the reference")
	}
	for k, n := range apairs {
		if rpairs[k] != n {
			return ir.Diagf(RuleStore, al.f.Name, ab.Name, -1,
				"may-aliasing stores were reordered relative to the reference")
		}
	}
	return nil
}

// orderedPairs collects, for every ordered pair of stores (i before j)
// that may alias and are not the identical triple, the pair of their
// triple hashes. Two blocks with the same store multiset and the same
// pair multiset agree on every observable store ordering.
func orderedPairs(stores []storeRec) map[[2]uint64]int {
	pairs := map[[2]uint64]int{}
	for i := 0; i < len(stores); i++ {
		for j := i + 1; j < len(stores); j++ {
			a, b := stores[i], stores[j]
			if !mayAliasVN(a.base, a.imm, b.base, b.imm) {
				continue
			}
			ha, hb := storeHash(a.base, a.imm, a.val), storeHash(b.base, b.imm, b.val)
			if ha == hb {
				continue
			}
			pairs[[2]uint64{ha, hb}]++
		}
	}
	return pairs
}

// classify refines a fallback rule by the nature of the allocated value:
// a clash number means a join no reference merge explains (T008), the
// clobber sentinel means a read of a call-clobbered register (T005), and
// the undef sentinel means a read of a never-written location — a spill
// slot if the execution recorded an undefined slot read (T006,
// preferring an event in the named block), otherwise a register (T004).
func (e *exec) classify(fallback string, vn uint64, block string) (rule, note string) {
	switch {
	case e.clashSet[vn]:
		return RuleJoin, " (value stems from a join no reference merge matches)"
	case vn == vnClobber:
		return RuleClobber, " (value was clobbered by a call)"
	case vn == vnUndef:
		var ev *undefEvent
		for i := range e.undefEv {
			if e.undefEv[i].l.isSlot() && (ev == nil || e.undefEv[i].block == block) {
				ev = &e.undefEv[i]
				if ev.block == block {
					break
				}
			}
		}
		if ev != nil {
			return RuleSlotUndef, " (reload of never-stored spill " + ev.l.String() +
				" at " + ev.block + "#" + itoa(int64(ev.instr)) + ")"
		}
		return RuleUndef, " (location was never written)"
	}
	return fallback, ""
}
