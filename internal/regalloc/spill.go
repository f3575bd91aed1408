package regalloc

import (
	"math"
	"slices"

	"prescount/internal/ir"
	"prescount/internal/liveness"
)

// spill assigns r a stack slot and splits its live range into
// pseudo-registers. Consecutive uses within one block — with no
// intervening call, definition of r, or overly long gap — share a single
// pseudo-register (a "span"): the value is reloaded once and reused, the
// classic region-based spill placement. Definitions get their own
// one-slot pseudo followed by a store. The pseudos carry infinite weight
// (they must get a register; they can evict anything finite) and are
// queued for allocation. No instructions are inserted yet — the
// slot-index space must stay stable — the rewrite happens in materialize.
//
// If a span pseudo itself becomes unallocatable (pathological pressure),
// assignOne demotes it back to per-use pseudos, so spilling always
// terminates at the finest granularity.
//
// Registers whose sole definition is a constant are rematerialized instead
// of stack-spilled: the constant is re-emitted at every use and no spill
// slot or store is needed (the classic cheap-to-recompute optimization).
func (a *allocator) spill(r ir.Reg, c ir.Class) {
	a.spilled.Add(r)
	a.res.SpilledVRegs++
	if def := a.rematSource(r); def != nil {
		a.remat.set(r, def)
		a.res.Remats++
	} else {
		a.spillSlot.set(r, int32(a.f.SpillSlots)+1)
		a.f.SpillSlots++
	}

	// maxSpanSlots bounds how long one reload may be kept live; longer
	// spans raise pressure for everyone else.
	const maxSpanSlots = 24

	// The walk visits r's sites only. What a walk over every instruction
	// would meet between two sites of one block is a call, which closes the
	// span, or an instruction whose slot may exceed the span cap, which the
	// next site's larger slot exceeds too; a block change closes the span
	// as the block's end does.
	span := a.spanBuf[:0]
	flush := func() {
		if len(span) == 0 {
			return
		}
		start := int(span[0].slot)
		end := int(span[len(span)-1].slot) + 1
		p := a.newPseudo(c, start, end)
		a.pseudoParent.set(p, r)
		members := make([]*ir.Instr, len(span))
		for i, site := range span {
			in, _, _ := a.instrAt(site.g)
			a.sitePseudo[siteKey{in, r, false}] = p
			if i == 0 {
				a.firstReload[siteKey{in, r, false}] = true
			}
			members[i] = in
		}
		a.spanMembers.set(p, members)
		span = span[:0]
	}
	sites := a.sitesOf(r)
	siteVisits.Add(int64(len(sites)))
	prev := int32(-1)
	for _, g := range sites {
		in, b, i := a.instrAt(g)
		if prev < 0 || a.sites.blockOf[prev] != a.sites.blockOf[g] || a.callBetween(prev, g) {
			flush()
		}
		prev = g
		s := a.lv.ReadSlot(b, i)
		if in.Op == ir.OpCall {
			flush() // the reloaded value would be clobbered
			continue
		}
		if a.splitChildAt(r, s) != ir.NoReg {
			continue // this region belongs to a loop-split child
		}
		if len(span) > 0 && s+1-int(span[0].slot) > maxSpanSlots {
			flush()
		}
		if slices.Contains(in.Uses, r) {
			span = append(span, spanSite{g, int32(s)})
		}
		if slices.Contains(in.Defs, r) {
			// A definition produces a new value: close the current span
			// (its members read the old value) and store the new one from
			// a fresh one-slot pseudo.
			flush()
			p := a.newPseudo(c, s+1, s+2)
			a.sitePseudo[siteKey{in, r, true}] = p
			a.pseudoParent.set(p, r)
		}
	}
	flush()
	a.spanBuf = span
}

// spanSite is one use of a spilled register collected into a span: its
// global instruction number and read slot.
type spanSite struct{ g, slot int32 }

// demoteSpan splits an unallocatable span pseudo back into per-use
// pseudos and requeues them. Returns false if the pseudo is already at
// the finest granularity.
func (a *allocator) demoteSpan(p ir.Reg) bool {
	members := a.spanMembers.get(p)
	if len(members) <= 1 {
		return false
	}
	parent := a.pseudoParent.get(p)
	c := a.classOf(p)
	a.spanMembers.set(p, nil)
	a.override.set(p, nil)
	a.pinned.Remove(p)
	// Members are uses of the spilled parent, so they are among its sites;
	// each is found again through its site key, in layout order.
	sites := a.sitesOf(parent)
	siteVisits.Add(int64(len(sites)))
	for _, g := range sites {
		in, b, i := a.instrAt(g)
		key := siteKey{in, parent, false}
		if a.sitePseudo[key] != p {
			continue
		}
		s := a.lv.ReadSlot(b, i)
		np := a.newPseudo(c, s, s+1)
		a.pseudoParent.set(np, parent)
		a.sitePseudo[key] = np
		a.firstReload[key] = true
		a.spanMembers.set(np, []*ir.Instr{in})
	}
	return true
}

// rematSource returns the single constant-producing definition of r, or
// nil when r is not rematerializable (multiple definitions, or a
// non-constant producer). Every definition of r is one of its sites.
func (a *allocator) rematSource(r ir.Reg) *ir.Instr {
	var def *ir.Instr
	sites := a.sitesOf(r)
	siteVisits.Add(int64(len(sites)))
	for _, g := range sites {
		in, _, _ := a.instrAt(g)
		for _, d := range in.Defs {
			if d != r {
				continue
			}
			if def != nil {
				return nil // redefined
			}
			if in.Op != ir.OpFConst && in.Op != ir.OpIConst {
				return nil
			}
			def = in
		}
	}
	return def
}

// newPseudo creates a spill pseudo-register with a synthesized interval.
func (a *allocator) newPseudo(c ir.Class, start, end int) ir.Reg {
	p := a.f.NewVReg(c)
	iv := &liveness.Interval{}
	iv.Add(start, end)
	a.override.set(p, iv)
	a.pinned.Add(p)
	a.queue.push(p, math.Inf(1))
	return p
}

// materialize rewrites the function onto physical registers and inserts the
// planned spill code. The new block lists are built in a reused buffer and
// then stored in one slab of their exact total length: a cached function
// keeps its lists for the life of the entry.
func (a *allocator) materialize() {
	cfg := a.opts.Cfg

	out := a.instrBuf[:0]
	for _, b := range a.f.Blocks {
		start := len(out)
		for i, in := range b.Instrs {
			slot := a.lv.ReadSlot(b, i)
			// Reloads (or rematerializations) for spilled uses: one per
			// span, emitted at the span's first member. Uses inside a
			// loop-split range read the child register instead.
			for k, u := range in.Uses {
				if !u.IsVirt() {
					continue
				}
				if child := a.splitChildAt(u, slot); child != ir.NoReg {
					in.Uses[k] = a.physOf(child)
					continue
				}
				if !a.spilled.Has(u) {
					in.Uses[k] = a.physOf(u)
					continue
				}
				key := siteKey{in, u, false}
				pseudo := a.sitePseudo[key]
				phys := a.physOf(pseudo)
				if a.firstReload[key] {
					delete(a.firstReload, key) // one reload even if u repeats
					if def := a.remat.get(u); def != nil {
						out = append(out, &ir.Instr{
							Op:   def.Op,
							Defs: []ir.Reg{phys},
							Imm:  def.Imm,
							FImm: def.FImm,
						})
					} else {
						op := ir.OpFReload
						if a.classOf(u) == ir.ClassGPR {
							op = ir.OpIReload
						}
						out = append(out, &ir.Instr{
							Op:   op,
							Defs: []ir.Reg{phys},
							Imm:  int64(a.spillSlot.get(u) - 1),
						})
						a.res.SpillReloads++
					}
				}
				in.Uses[k] = phys
			}
			out = append(out, in)
			// Stores for spilled defs; rematerialized registers need none
			// (their defining constant is re-emitted at each use).
			for k, d := range in.Defs {
				if !d.IsVirt() {
					continue
				}
				if !a.spilled.Has(d) {
					in.Defs[k] = a.physOf(d)
					continue
				}
				pseudo := a.sitePseudo[siteKey{in, d, true}]
				phys := a.physOf(pseudo)
				in.Defs[k] = phys
				if a.remat.get(d) != nil {
					continue
				}
				op := ir.OpFSpill
				if a.classOf(d) == ir.ClassGPR {
					op = ir.OpISpill
				}
				out = append(out, &ir.Instr{
					Op:   op,
					Uses: []ir.Reg{phys},
					Imm:  int64(a.spillSlot.get(d) - 1),
				})
				a.res.SpillStores++
			}
		}
		// Capped, so the split copies below reallocate instead of
		// overwriting the next block.
		b.Instrs = out[start:len(out):len(out)]
	}
	a.instrBuf = out
	a.materializeSplits()
	n := 0
	for _, b := range a.f.Blocks {
		n += len(b.Instrs)
	}
	slab := make([]*ir.Instr, 0, n)
	for _, b := range a.f.Blocks {
		start := len(slab)
		slab = append(slab, b.Instrs...)
		b.Instrs = slab[start:len(slab):len(slab)]
	}
	// Clear what this run filled: every earlier run cleared its own part,
	// so no slot past it holds an instruction either.
	clear(a.instrBuf)
	a.f.NumFPRegs = cfg.NumRegs
}
