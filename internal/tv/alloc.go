package tv

import "prescount/internal/ir"

// adoption records one join decision the allocated-side pass made from
// incomplete information (a loop header whose back edge was not yet
// executed, or a join whose incoming values disagreed): the location,
// the candidate reference values that matched the available edges, and
// which one was chosen. Phase B re-checks every adoption against all
// edges once the whole function has been executed, and Check backtracks
// over the per-position choices when one is refuted.
type adoption struct {
	block *ir.Block
	l     loc
	cands []uint64 // candidate entry values, most plausible first
	isPhi []bool
	chose int
}

// runAlloc executes the allocated function in one reverse-postorder
// pass, resolving joins against the reference execution's phi table.
//
// At a join, a live-in location whose available incoming values agree
// and whose predecessors are all available simply takes that value.
// Otherwise the pass adopts a candidate reference value: a reference phi
// of this block whose recorded per-edge values match every available
// edge, or — when the available edges agree on a single value v — v
// itself ("the location is loop-invariant"). Candidates can be
// ambiguous: a counter and a base pointer both initialised to zero are
// indistinguishable on the entry edge alone. choices[i] selects the
// candidate of the i-th adoption; position i's candidate list depends
// only on choices 0..i-1 (adoptions are made in execution order), so
// the vector spans a well-defined search tree that Check enumerates by
// chronological backtracking. A join matching no candidate receives a
// clash number, which is only an error if a use resolves to it.
func (e *exec) runAlloc(ref *exec, choices []int) []adoption {
	e.clashSet = map[uint64]bool{}
	if e.defs == nil {
		e.defs = defLocs(e.f, e.numFP)
	}
	clobbers := clobberSet(e.f, e.numFP)
	var adoptions []adoption
	for _, b := range e.rpo {
		entry := state{}
		if b == e.f.Entry() {
			entry[memLoc()] = vnMem0
		} else {
			for _, l := range e.joinLocs(b) {
				vals, anyPred := e.incoming(b, l)
				if !anyPred {
					continue
				}
				unavail := false
				for _, p := range b.Preds {
					if e.inRPO[p.ID] && e.out[p.ID] == nil {
						unavail = true
					}
				}
				if len(vals) == 1 && !unavail {
					entry[l] = vals[0]
					continue
				}
				cands, isPhi := e.matchCandidates(ref, b, l, vals, unavail)
				if len(cands) == 0 {
					vn := e.t.intern(vnKey{kind: kClash, imm: int64(b.ID), a: l.id()})
					e.clashSet[vn] = true
					entry[l] = vn
					continue
				}
				ci := 0
				if pos := len(adoptions); pos < len(choices) {
					ci = choices[pos]
				}
				if ci >= len(cands) {
					ci = len(cands) - 1
				}
				entry[l] = cands[ci]
				adoptions = append(adoptions, adoption{
					block: b, l: l, cands: cands, isPhi: isPhi, chose: ci,
				})
			}
		}
		e.entry[b.ID] = entry
		e.evalBlock(b, entry, clobbers)
	}
	return adoptions
}

// matchCandidates lists the reference entry values location l could
// legitimately hold at block b, judged on the predecessor edges executed
// so far: every reference phi of b whose per-edge values match each
// available edge, plus the single agreed value when the available edges
// agree (the loop-invariant interpretation).
//
// Ordering is the convergence heuristic: if no pending (not yet
// executed) block writes l, the value circulating around any back edge
// is necessarily the one this join adopts, so the invariant
// interpretation is self-consistent by construction and goes first.
// If some pending block does write l, a loop-carried phi is the likely
// reading and the phis go first.
func (e *exec) matchCandidates(ref *exec, b *ir.Block, l loc, vals []uint64, unavail bool) (cands []uint64, isPhi []bool) {
	for _, pe := range ref.phiOrder[b.ID] {
		edges := ref.phiEdges[pe.vn]
		ok := true
		for _, p := range b.Preds {
			if !e.inRPO[p.ID] || e.out[p.ID] == nil {
				continue
			}
			if e.out[p.ID].get(l) != edges[p.Name] {
				ok = false
				break
			}
		}
		if ok {
			cands = append(cands, pe.vn)
			isPhi = append(isPhi, true)
		}
	}
	if unavail && len(vals) == 1 {
		if e.pendingWrites(l) {
			cands = append(cands, vals[0])
			isPhi = append(isPhi, false)
		} else {
			cands = append([]uint64{vals[0]}, cands...)
			isPhi = append([]bool{false}, isPhi...)
		}
	}
	return cands, isPhi
}

// pendingWrites reports whether any reachable block that has not yet
// been executed in the current pass writes location l.
func (e *exec) pendingWrites(l loc) bool {
	for _, b := range e.rpo {
		if e.out[b.ID] == nil && e.defs[b.ID][l] {
			return true
		}
	}
	return false
}

// defLocs returns, per block ID, the set of locations the block writes:
// register defs, spill slots, the memory cell at stores, and the
// caller-saved set at calls. The adoption-ordering heuristic consults
// it; see matchCandidates.
func defLocs(f *ir.Func, numFP int) []map[loc]bool {
	clobbers := clobberSet(f, numFP)
	defs := make([]map[loc]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		d := map[loc]bool{}
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpFSpill, ir.OpISpill:
				d[slotLoc(in.Imm)] = true
				continue
			case ir.OpFStore:
				d[memLoc()] = true
			case ir.OpCall:
				for l := range clobbers {
					d[l] = true
				}
			}
			for _, r := range in.Defs {
				if r != ir.NoReg {
					d[regLoc(r)] = true
				}
			}
		}
		defs[b.ID] = d
	}
	return defs
}

// verifyAdoptions re-checks every join decision against all predecessor
// edges after the full pass, returning the first refutation as a T008
// diagnostic — the shape of a cross-block copy misroute, where a
// predecessor delivers a value no reference merge accounts for — along
// with the index of the refuted adoption. The caller decides whether the
// refutation is final or another point in the choice space remains to be
// tried (greedyAdvance, advanceChoices).
func (e *exec) verifyAdoptions(ref *exec, adoptions []adoption) (error, int) {
	for i, ad := range adoptions {
		for _, p := range ad.block.Preds {
			if !e.inRPO[p.ID] || e.out[p.ID] == nil {
				continue
			}
			got := e.out[p.ID].get(ad.l)
			want := ad.cands[ad.chose]
			if ad.isPhi[ad.chose] {
				want = ref.phiEdges[ad.cands[ad.chose]][p.Name]
			}
			if got == want {
				continue
			}
			return ir.Diagf(RuleJoin, e.f.Name, ad.block.Name, -1,
				"location %s is live into the join but no reference merge matches it: predecessor %s delivers a value inconsistent with every candidate",
				ad.l, p.Name), i
		}
	}
	return nil, -1
}

// greedyAdvance computes the next choice vector of the greedy repair
// phase: every adoption keeps its current candidate except the refuted
// one, which advances. When the wrong choices are independent — the
// common case, N loop-carried values that shadow each other because
// repeated loads of one address share a value number — each refuted
// location converges on its own, so N swapped phis repair in O(N) passes
// instead of the exponential joint enumeration. The repair is only a
// search order: a refutation whose culprit is a different location (a
// poisoned join) exhausts the victim's candidates, greedy fails, and
// Check falls back to the complete chronological search. Returns false
// when the refuted adoption has no candidate left.
func greedyAdvance(adoptions []adoption, refuted int) ([]int, bool) {
	if refuted < 0 || refuted >= len(adoptions) {
		return nil, false
	}
	if adoptions[refuted].chose+1 >= len(adoptions[refuted].cands) {
		return nil, false
	}
	next := make([]int, len(adoptions))
	for i, ad := range adoptions {
		next[i] = ad.chose
	}
	next[refuted]++
	return next, true
}

// advanceChoices computes the next choice vector after a refuted run:
// the deepest adoption position with an untried candidate advances, and
// every later position resets. Since a position's candidate list is a
// function of the choices before it, this is chronological backtracking
// over the full (finite) choice tree — a wrong early choice poisons the
// values flowing into later joins in both directions, so no local
// culprit heuristic is sound; exhaustive enumeration with a plausible
// first ordering (see matchCandidates) is. Returns false when the whole
// space is exhausted.
func advanceChoices(adoptions []adoption) ([]int, bool) {
	for j := len(adoptions) - 1; j >= 0; j-- {
		if adoptions[j].chose+1 < len(adoptions[j].cands) {
			next := make([]int, j+1)
			for i := 0; i < j; i++ {
				next[i] = adoptions[i].chose
			}
			next[j] = adoptions[j].chose + 1
			return next, true
		}
	}
	return nil, false
}
