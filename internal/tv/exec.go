package tv

import (
	"sort"

	"prescount/internal/ir"
)

// state is one abstract machine state: location → value number. A
// location absent from the map reads as vnUndef.
type state map[loc]uint64

func (s state) get(l loc) uint64 {
	if v, ok := s[l]; ok {
		return v
	}
	return vnUndef
}

func cloneState(s state) state {
	c := make(state, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// storeRec is one executed store: its address (base value number plus
// constant offset), the stored value number, and the instruction index
// for diagnostics.
type storeRec struct {
	base  uint64
	imm   int64
	val   uint64
	instr int
}

// anchorInfo locates the first instruction that produced an anchor value
// number in a block, with its operand numbers, for drill-down
// diagnostics when the anchor has no counterpart in the other program.
type anchorInfo struct {
	instr int
	op    ir.Op
	opnds []uint64
}

// undefEvent records a read that resolved to vnUndef, with enough
// provenance to attribute a later mismatch to a register (T004) or a
// spill slot (T006).
type undefEvent struct {
	block string
	instr int
	l     loc
}

// blockFacts are the per-block observations the comparison pass consumes.
type blockFacts struct {
	anchors map[uint64]int        // anchor value number → count
	detail  map[uint64]anchorInfo // first producer of each anchor number
	stores  []storeRec            // in executed order
	condVN  uint64                // OpCondBr condition value, 0 if none
	calls   int                   // OpCall count
	memExit uint64                // outgoing memory state number
}

// exec symbolically executes one function over a shared value-number
// table. The same machine serves both sides; only the join policy
// differs (the reference invents phis, the allocated side resolves
// against them).
type exec struct {
	t       *vnTable
	f       *ir.Func
	numFP   int // physical FP file size, for the caller-saved set
	rpo     []*ir.Block
	inRPO   []bool // block ID → reachable
	liveIn  []map[loc]bool
	entry   []state // per block ID, post-join
	out     []state // per block ID, post-execution
	facts   []blockFacts
	undefEv []undefEvent

	// Reference-side join table: sticky phis keyed (block, location),
	// and after convergence the per-predecessor incoming value of each
	// phi (keyed by predecessor block name).
	phiAt    map[phiKey]uint64
	phiOrder [][]phiEntry // per block ID, in creation order
	phiEdges map[uint64]map[string]uint64

	// Allocated-side: clash numbers minted at joins that matched no
	// reference value (a clash only matters when a use resolves to it),
	// and the per-block written-location sets the adoption-ordering
	// heuristic consults (built lazily by runAlloc).
	clashSet map[uint64]bool
	defs     []map[loc]bool
}

type phiKey struct {
	block int
	l     loc
}

type phiEntry struct {
	l  loc
	vn uint64
}

func newExec(t *vnTable, f *ir.Func, numFP int) *exec {
	e := &exec{t: t, f: f, numFP: numFP}
	e.rpo, e.inRPO = rpoOrder(f)
	e.liveIn = liveLocs(f, e.numFP)
	n := len(f.Blocks)
	e.entry = make([]state, n)
	e.out = make([]state, n)
	e.facts = make([]blockFacts, n)
	return e
}

// rpoOrder returns the blocks reachable from entry in reverse postorder,
// plus a reachability flag per block ID. Unreachable blocks are never
// executed and never compared.
func rpoOrder(f *ir.Func) ([]*ir.Block, []bool) {
	seen := make([]bool, len(f.Blocks))
	var post []*ir.Block
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		seen[b.ID] = true
		for _, s := range b.Succs {
			if !seen[s.ID] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(f.Entry())
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post, seen
}

// liveLocs computes the live-in location set of every block: registers
// and spill slots read on some path before being written. It is the
// checker's own backward dataflow — deliberately independent of
// internal/liveness, like verify.EntryLive. OpCall kills caller-saved
// physical registers (their pre-call value is unobservable after it).
func liveLocs(f *ir.Func, numFP int) []map[loc]bool {
	n := len(f.Blocks)
	gen := make([]map[loc]bool, n)
	kill := make([]map[loc]bool, n)
	liveIn := make([]map[loc]bool, n)
	for _, b := range f.Blocks {
		g, k := map[loc]bool{}, map[loc]bool{}
		use := func(l loc) {
			if !k[l] {
				g[l] = true
			}
		}
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpFReload, ir.OpIReload:
				use(slotLoc(in.Imm))
			case ir.OpFSpill, ir.OpISpill:
				use(regLoc(in.Uses[0]))
				k[slotLoc(in.Imm)] = true
				continue
			case ir.OpCall:
				for l := range clobberSet(f, numFP) {
					k[l] = true
				}
				continue
			}
			for _, u := range in.Uses {
				if u != ir.NoReg {
					use(regLoc(u))
				}
			}
			for _, d := range in.Defs {
				if d != ir.NoReg {
					k[regLoc(d)] = true
				}
			}
		}
		gen[b.ID], kill[b.ID] = g, k
		liveIn[b.ID] = map[loc]bool{}
	}
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			b := f.Blocks[i]
			in := liveIn[b.ID]
			for l := range gen[b.ID] {
				if !in[l] {
					in[l] = true
					changed = true
				}
			}
			for _, s := range b.Succs {
				for l := range liveIn[s.ID] {
					if !kill[b.ID][l] && !in[l] {
						in[l] = true
						changed = true
					}
				}
			}
		}
	}
	return liveIn
}

// clobberSet returns the caller-saved physical registers used anywhere
// in f (per function, cached on first call via the closure below would
// be nicer, but the set is tiny; recompute is fine for liveness and the
// executor keeps its own copy).
func clobberSet(f *ir.Func, numFP int) map[loc]bool {
	set := map[loc]bool{}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, rs := range [2][]ir.Reg{in.Defs, in.Uses} {
				for _, r := range rs {
					switch {
					case r.IsGPR() && ir.CallerSavedGPR(r.GPRIndex()):
						set[regLoc(r)] = true
					case r.IsFPR() && ir.CallerSavedFPR(r.FPRIndex(), numFP):
						set[regLoc(r)] = true
					}
				}
			}
		}
	}
	return set
}

// isAnchor reports whether op is a computation the pipeline preserves
// one-for-one per block: real arithmetic, comparisons and loads. Copies
// (coalescing deletes them, splitting inserts them), constants
// (rematerialization duplicates them), spill pseudo-ops, stores, calls
// and terminators are matched by other checks.
func isAnchor(op ir.Op) bool {
	switch op {
	case ir.OpIAdd, ir.OpIAddI, ir.OpIMul, ir.OpIMulI, ir.OpICmpLt, ir.OpICmpLtI,
		ir.OpFNeg, ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv, ir.OpFMin,
		ir.OpFMax, ir.OpFMA, ir.OpFLoad:
		return true
	}
	return false
}

// evalBlock executes block b from the given entry state, filling
// e.out[b.ID] and e.facts[b.ID]. clobbers is the caller-saved register
// set applied at OpCall.
func (e *exec) evalBlock(b *ir.Block, entry state, clobbers map[loc]bool) {
	st := cloneState(entry)
	memIn := st.get(memLoc())
	if memIn == vnUndef {
		memIn = vnMem0
	}
	fx := blockFacts{
		anchors: map[uint64]int{},
		detail:  map[uint64]anchorInfo{},
	}
	read := func(l loc, idx int) uint64 {
		v := st.get(l)
		if v == vnUndef {
			e.undefEv = append(e.undefEv, undefEvent{block: b.Name, instr: idx, l: l})
		}
		return v
	}
	for idx, in := range b.Instrs {
		switch in.Op {
		case ir.OpNop, ir.OpBr, ir.OpRet:
		case ir.OpIConst, ir.OpFConst:
			st[regLoc(in.Defs[0])] = e.t.constVN(in.Op, in.Imm, in.FImm)
		case ir.OpIMov, ir.OpFMov:
			st[regLoc(in.Defs[0])] = read(regLoc(in.Uses[0]), idx)
		case ir.OpFSpill, ir.OpISpill:
			st[slotLoc(in.Imm)] = read(regLoc(in.Uses[0]), idx)
		case ir.OpFReload, ir.OpIReload:
			st[regLoc(in.Defs[0])] = read(slotLoc(in.Imm), idx)
		case ir.OpFStore:
			fx.stores = append(fx.stores, storeRec{
				base:  read(regLoc(in.Uses[1]), idx),
				imm:   in.Imm,
				val:   read(regLoc(in.Uses[0]), idx),
				instr: idx,
			})
		case ir.OpFLoad:
			base := read(regLoc(in.Uses[0]), idx)
			// The load sees the block-entry memory plus every preceding
			// in-block store that may alias it. The chain is an
			// order-insensitive sum: stores that may alias the load but
			// not each other are legal to reorder, and store↔store order
			// violations are caught separately by the pair-order check.
			var chain uint64
			for _, s := range fx.stores {
				if mayAliasVN(s.base, s.imm, base, in.Imm) {
					chain += storeHash(s.base, s.imm, s.val)
				}
			}
			vn := e.t.intern(vnKey{kind: kInstr, op: in.Op, imm: in.Imm, a: base, b: memIn, c: chain})
			st[regLoc(in.Defs[0])] = vn
			e.recordAnchor(&fx, vn, idx, in.Op, []uint64{base})
		case ir.OpCall:
			fx.calls++
			for l := range clobbers {
				if _, ok := st[l]; ok {
					st[l] = vnClobber
				}
			}
		case ir.OpCondBr:
			fx.condVN = read(regLoc(in.Uses[0]), idx)
		default:
			// Pure computation: number it over the operand values.
			ops := [3]uint64{}
			opnds := make([]uint64, len(in.Uses))
			for i, u := range in.Uses {
				v := read(regLoc(u), idx)
				ops[i] = v
				opnds[i] = v
			}
			imm := int64(0)
			if in.Op.HasImm() {
				imm = in.Imm
			}
			vn := e.t.instrVN(in.Op, imm, ops[0], ops[1], ops[2])
			if len(in.Defs) > 0 {
				st[regLoc(in.Defs[0])] = vn
			}
			if isAnchor(in.Op) {
				e.recordAnchor(&fx, vn, idx, in.Op, opnds)
			}
		}
	}
	if len(fx.stores) == 0 {
		fx.memExit = memIn
	} else {
		var sum uint64
		for _, s := range fx.stores {
			sum += storeHash(s.base, s.imm, s.val)
		}
		fx.memExit = e.t.intern(vnKey{kind: kMemExit, imm: int64(b.ID), a: memIn, b: sum})
	}
	st[memLoc()] = fx.memExit
	e.out[b.ID] = st
	e.facts[b.ID] = fx
}

func (e *exec) recordAnchor(fx *blockFacts, vn uint64, idx int, op ir.Op, opnds []uint64) {
	fx.anchors[vn]++
	if _, ok := fx.detail[vn]; !ok {
		fx.detail[vn] = anchorInfo{instr: idx, op: op, opnds: opnds}
	}
}

// refMaxPasses bounds the reference fixpoint. Sticky phis make the
// iteration monotone; the bound exists only to turn a checker bug into a
// diagnostic instead of a hang.
func refMaxPasses(n int) int { return 4*n + 16 }

// runRef iterates the reference function to a fixed point. At each
// multi-predecessor block entry, a live-in location whose incoming
// values disagree receives a sticky phi number keyed (block, location);
// once created the phi is the location's entry value forever, which
// makes the iteration monotone. After convergence, phiEdges records each
// phi's final incoming value per predecessor — the table the
// allocated-side join resolution matches against.
//
// Stickiness has one artifact: a phi minted on a *transient*
// disagreement (one predecessor's out-state was stale because another
// phi appeared mid-iteration) can converge with all edges carrying the
// same value. Such a degenerate phi is not a merge — but it infects
// every value computed from it, and the allocated side, which resolves
// the same join to the plain value, would diverge on values that are in
// fact equal. So after each convergence the degenerate phis are
// dropped and the fixpoint reruns from scratch under the surviving phi
// set: with the real phis pre-minted, the values that caused the
// transient are stable from the first pass and the degenerate phi is
// not re-created. The collapse loop runs until no degenerate phi
// remains; the phi set both shrinks and grows across reruns, so a
// generous outer bound turns a (never observed) oscillation into a
// diagnostic rather than a hang.
func (e *exec) runRef() error {
	e.phiAt = map[phiKey]uint64{}
	clobbers := clobberSet(e.f, e.numFP)
	for outer := 0; outer <= refMaxPasses(len(e.rpo)); outer++ {
		// Fresh evaluation under the current sticky-phi set.
		n := len(e.f.Blocks)
		e.entry = make([]state, n)
		e.out = make([]state, n)
		e.rebuildPhiOrder()
		for pass := 0; ; pass++ {
			if pass > refMaxPasses(len(e.rpo)) {
				return ir.Diagf(RuleFixpoint, e.f.Name, "", -1,
					"reference fixpoint did not converge in %d passes", pass)
			}
			changed := false
			for _, b := range e.rpo {
				entry := e.joinRef(b)
				if !statesEqual(entry, e.entry[b.ID]) {
					changed = true
				}
				e.entry[b.ID] = entry
				prevOut := e.out[b.ID]
				e.undefEv = e.undefEv[:0] // ref-side events are not reported
				e.evalBlock(b, entry, clobbers)
				if !statesEqual(prevOut, e.out[b.ID]) {
					changed = true
				}
			}
			if !changed {
				break
			}
		}
		// Record the per-edge incoming value of every phi, then drop the
		// degenerate ones: a phi is a real merge only if at least two
		// distinct non-self values flow in. Self-edges arise when the
		// location is unwritten around a back edge (the phi passes through
		// itself), and φ = merge(v, ..., φ) reduces to v — the standard
		// SSA pruning identity.
		e.phiEdges = map[uint64]map[string]uint64{}
		removed := false
		for _, b := range e.rpo {
			for _, pe := range e.phiOrder[b.ID] {
				edges := map[string]uint64{}
				agreed := true
				nonself := 0
				var first uint64
				for _, p := range b.Preds {
					if !e.inRPO[p.ID] || e.out[p.ID] == nil {
						continue
					}
					v := e.out[p.ID].get(pe.l)
					edges[p.Name] = v
					if v == pe.vn {
						continue
					}
					nonself++
					if nonself == 1 {
						first = v
					} else if v != first {
						agreed = false
					}
				}
				if agreed && nonself > 0 {
					delete(e.phiAt, phiKey{b.ID, pe.l})
					removed = true
					continue
				}
				e.phiEdges[pe.vn] = edges
			}
		}
		if !removed {
			return nil
		}
	}
	return ir.Diagf(RuleFixpoint, e.f.Name, "", -1,
		"reference phi collapse did not converge")
}

// rebuildPhiOrder derives the per-block phi list from the surviving
// phiAt set, in deterministic location order.
func (e *exec) rebuildPhiOrder() {
	e.phiOrder = make([][]phiEntry, len(e.f.Blocks))
	for k, vn := range e.phiAt {
		e.phiOrder[k.block] = append(e.phiOrder[k.block], phiEntry{l: k.l, vn: vn})
	}
	for i := range e.phiOrder {
		pes := e.phiOrder[i]
		sort.Slice(pes, func(a, b int) bool { return pes[a].l.id() < pes[b].l.id() })
	}
}

// joinRef merges predecessor out-states into block b's entry state
// (reference policy: invent sticky phis on disagreement).
func (e *exec) joinRef(b *ir.Block) state {
	entry := state{}
	if b == e.f.Entry() {
		entry[memLoc()] = vnMem0
		return entry
	}
	for _, l := range e.joinLocs(b) {
		if vn, ok := e.phiAt[phiKey{b.ID, l}]; ok {
			entry[l] = vn
			continue
		}
		vals, anyPred := e.incoming(b, l)
		if !anyPred {
			continue
		}
		if len(vals) == 1 {
			entry[l] = vals[0]
			continue
		}
		vn := e.t.intern(vnKey{kind: kPhi, imm: int64(b.ID), a: l.id()})
		e.phiAt[phiKey{b.ID, l}] = vn
		e.phiOrder[b.ID] = append(e.phiOrder[b.ID], phiEntry{l: l, vn: vn})
		entry[l] = vn
	}
	return entry
}

// joinLocs lists the locations worth joining at b's entry: the live-in
// set plus the memory cell, in deterministic order.
func (e *exec) joinLocs(b *ir.Block) []loc {
	locs := make([]loc, 0, len(e.liveIn[b.ID])+1)
	for l := range e.liveIn[b.ID] {
		locs = append(locs, l)
	}
	sort.Slice(locs, func(i, j int) bool { return locs[i].id() < locs[j].id() })
	return append(locs, memLoc())
}

// incoming collects the distinct incoming values of location l at block
// b from predecessors whose out-state has been computed, and reports
// whether any predecessor was available.
func (e *exec) incoming(b *ir.Block, l loc) (vals []uint64, anyPred bool) {
	seen := map[uint64]bool{}
	for _, p := range b.Preds {
		if !e.inRPO[p.ID] || e.out[p.ID] == nil {
			continue
		}
		anyPred = true
		v := e.out[p.ID].get(l)
		if !seen[v] {
			seen[v] = true
			vals = append(vals, v)
		}
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals, anyPred
}

func statesEqual(a, b state) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
