package regalloc

import (
	"fmt"

	"prescount/internal/cfg"
	"prescount/internal/ir"
	"prescount/internal/liveness"
	"prescount/internal/rcg"
)

// Scratch set sizes: FMA reads three FP operands, and no instruction reads
// more than two GPRs.
const (
	fpScratch  = 3
	gprScratch = 2
)

// frame is what linear scan, coloring and binpacking share around their
// decision loops: the normalized register file, the function's analyses
// and call sites, the scratch registers reserved per class, each
// register's placement, and the one rewrite that turns placements into
// code.
//
// A placement follows binpacking's model. A register holds zero or more
// pieces, each a stretch of its live range resident in one physical
// register, and it may be marked for a spill slot. A marked register is
// stored after every definition and reloaded into a piece's register at
// the piece's first use in a block; an operand no piece covers goes
// through scratch. Linear scan and coloring give a register one piece over
// its whole interval or mark it and leave it without pieces, which
// rewrites as the textbook spill-everywhere scheme.
type frame struct {
	f    *ir.Func
	opts Options
	res  *Result
	lv   *liveness.Info
	g    *rcg.Graph // coloring and binpacking only

	callSlots             []int
	fpScratch, gprScratch []int

	pieces vregTable[[]piece]
	// slot holds 1 + each marked register's place in marking order (0 =
	// unmarked). Slots are numbered from f.SpillSlots only in materialize,
	// so a run the frame resets (a coloring bail, a binpacking repack)
	// leaves f untouched.
	slot   vregTable[int]
	nslots int
}

// piece is one contiguous residency of a register: the (possibly trimmed)
// interval during which its value lives in phys. key is the interval-union
// owner key binpacking gives the piece.
type piece struct {
	iv   *liveness.Interval
	phys int
	key  ir.Reg
}

// newFrame validates the register file, takes the liveness (and, withRCG,
// the RCG) from opts.Analyses or computes it, and collects the call sites.
func newFrame(f *ir.Func, opts Options, withRCG bool) (*frame, error) {
	opts.Cfg = opts.Cfg.Normalize()
	if err := opts.Cfg.Validate(); err != nil {
		return nil, err
	}
	fr := &frame{f: f, opts: opts}
	if ac := opts.Analyses; ac != nil {
		fr.lv = ac.Liveness()
		if withRCG {
			fr.g = ac.RCG()
		}
	} else {
		cf := cfg.Compute(f)
		fr.lv = liveness.Compute(f, cf)
		if withRCG {
			fr.g = rcg.Build(f, cf)
		}
	}
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if in.Op == ir.OpCall {
				fr.callSlots = append(fr.callSlots, fr.lv.ReadSlot(b, i))
			}
		}
	}
	fr.reset()
	return fr, nil
}

// reset forgets every placement, mark and statistic; the analyses and the
// reserved scratch registers stay.
func (fr *frame) reset() {
	fr.res = &Result{GroupDispl: map[int]int{}}
	fr.pieces.reset(len(fr.f.VRegs))
	fr.slot.reset(len(fr.f.VRegs))
	fr.nslots = 0
}

// reserve sets the highest registers of class c aside as its scratch set.
func (fr *frame) reserve(c ir.Class) error {
	n, k := fr.numRegs(c), gprScratch
	if c == ir.ClassFP {
		k = fpScratch
		if n <= k {
			return fmt.Errorf("regalloc: %s: FP file of %d registers too small for %d scratch registers", fr.f.Name, n, k)
		}
	}
	s := make([]int, k)
	for i := range s {
		s[i] = n - k + i
	}
	if c == ir.ClassFP {
		fr.fpScratch = s
	} else {
		fr.gprScratch = s
	}
	return nil
}

// reserveAll reserves the scratch sets of both classes.
func (fr *frame) reserveAll() error {
	if err := fr.reserve(ir.ClassFP); err != nil {
		return err
	}
	return fr.reserve(ir.ClassGPR)
}

func (fr *frame) numRegs(c ir.Class) int {
	if c == ir.ClassFP {
		return fr.opts.Cfg.NumRegs
	}
	return numGPRFile
}

func (fr *frame) scratch(c ir.Class) []int {
	if c == ir.ClassFP {
		return fr.fpScratch
	}
	return fr.gprScratch
}

// order returns class c's default candidate order.
func (fr *frame) order(c ir.Class) []int {
	if c == ir.ClassFP {
		return allocOrder(fr.opts.Cfg.NumRegs)
	}
	return gprOrder()
}

// regs returns class c's registers with a non-empty live interval, in
// register order.
func (fr *frame) regs(c ir.Class) []ir.Reg {
	var out []ir.Reg
	for idx, info := range fr.f.VRegs {
		if iv := fr.lv.Intervals[idx]; info.Class == c && iv != nil && !iv.Empty() {
			out = append(out, ir.VReg(idx))
		}
	}
	return out
}

// spansCall reports whether iv covers a call site, which makes every
// caller-saved register unusable for it.
func (fr *frame) spansCall(iv *liveness.Interval) bool {
	for _, s := range fr.callSlots {
		if iv.Covers(s) {
			return true
		}
	}
	return false
}

// legal reports whether register p of class c may hold a value: it is not
// scratch (the highest registers, see reserve) and, for a value live
// across a call (crossesCall), not clobbered by calls.
func (fr *frame) legal(c ir.Class, p int, crossesCall bool) bool {
	n := fr.numRegs(c)
	if p >= n-len(fr.scratch(c)) {
		return false
	}
	if !crossesCall {
		return true
	}
	if c == ir.ClassFP {
		return !ir.CallerSavedFPR(p, n)
	}
	return !ir.CallerSavedGPR(p)
}

// bestReg is the bank-aware register choice of coloring and binpacking:
// among the legal registers free says are free for iv, in class order, it
// returns the one whose bank carries the least RCG edge weight to r's
// placed conflict partners, the earliest on ties; a GPR, having no banks,
// takes the first. It returns -1 when none is free.
func (fr *frame) bestReg(r ir.Reg, c ir.Class, iv *liveness.Interval, free func(p int) bool) int {
	crossesCall := fr.spansCall(iv)
	best, bestPen := -1, 0.0
	for _, p := range fr.order(c) {
		if !fr.legal(c, p, crossesCall) || !free(p) {
			continue
		}
		if c == ir.ClassGPR {
			return p
		}
		if pen := fr.bankPenalty(r, p); best < 0 || pen < bestPen {
			best, bestPen = p, pen
			if pen == 0 {
				break
			}
		}
	}
	return best
}

// bankPenalty sums the RCG edge weight between r and every conflict
// partner holding a piece in the bank of register p.
func (fr *frame) bankPenalty(r ir.Reg, p int) float64 {
	bank := fr.opts.Cfg.Bank(p)
	pen := 0.0
	for _, n := range fr.g.Neighbors(r) {
		if !n.IsVirt() {
			continue
		}
		for _, pc := range fr.pieces.get(n) {
			if fr.opts.Cfg.Bank(pc.phys) == bank {
				pen += fr.g.EdgeWeight(r, n)
				break
			}
		}
	}
	return pen
}

// place gives r a piece over iv in physical register p and returns it.
func (fr *frame) place(r ir.Reg, p int, iv *liveness.Interval) *piece {
	ps := append(fr.pieces.get(r), piece{iv: iv, phys: p})
	fr.pieces.set(r, ps)
	return &ps[len(ps)-1]
}

// mark sends r to a spill slot (once).
func (fr *frame) mark(r ir.Reg) {
	if fr.slot.get(r) > 0 {
		return
	}
	fr.nslots++
	fr.slot.set(r, fr.nslots)
	fr.res.SpilledVRegs++
}

// marked reports whether any register of class c is marked.
func (fr *frame) marked(c ir.Class) bool {
	for idx, s := range fr.slot.v {
		if s > 0 && fr.f.VRegs[idx].Class == c {
			return true
		}
	}
	return false
}

// pieceAt returns r's piece covering slot, or nil.
func (fr *frame) pieceAt(r ir.Reg, slot int) *piece {
	ps := fr.pieces.get(r)
	for i := range ps {
		if ps[i].iv.Covers(slot) {
			return &ps[i]
		}
	}
	return nil
}

// finish records the allocation under opts.Record, rewrites f and
// verifies it.
func (fr *frame) finish() (*Result, error) {
	if fr.opts.Record {
		fr.record()
	}
	fr.materialize()
	fr.f.MarkMutated()
	if ac := fr.opts.Analyses; ac != nil {
		ac.RetainCFG() // spill code and operand rewrites keep control flow
	}
	return fr.res, fr.f.Verify()
}

// record fills the verifier's views: one Assignment per piece with the
// interval it occupies, the spill slots of marked registers, and the
// entry-live set.
func (fr *frame) record() {
	f := fr.f
	entry := f.Entry()
	fr.res.SpillSlotOf = make(map[ir.Reg]int, fr.nslots)
	for idx, info := range f.VRegs {
		r := ir.VReg(idx)
		for _, pc := range fr.pieces.get(r) {
			fr.res.Assignments = append(fr.res.Assignments, Assignment{
				Reg: r, Class: info.Class, Phys: pc.phys, Interval: pc.iv,
			})
		}
		if s := fr.slot.get(r); s > 0 {
			fr.res.SpillSlotOf[r] = f.SpillSlots + s - 1
		}
		if fr.lv.LiveIn[entry.ID].Has(r) {
			fr.res.EntryLiveIn = append(fr.res.EntryLiveIn, r)
		}
	}
}

// materialize rewrites f onto physical registers. An operand a piece
// covers uses the piece's register; an operand in a gap goes through the
// class's scratch registers, rotating per instruction; every definition of
// a marked register stores to its slot; and a marked register is reloaded
// into a piece's register at its first use in each block. The per-block
// reload keeps the rewrite correct across branches and loop back edges
// without dominance analysis: memory holds a marked register's value.
func (fr *frame) materialize() {
	f := fr.f
	base := f.SpillSlots - 1 // slot marks count from 1
	encode := func(c ir.Class, p int) ir.Reg {
		if c == ir.ClassFP {
			return ir.FReg(p)
		}
		return ir.XReg(p)
	}
	op := func(c ir.Class, fp, gpr ir.Op) ir.Op {
		if c == ir.ClassGPR {
			return gpr
		}
		return fp
	}
	reload := func(c ir.Class, r, phys ir.Reg) *ir.Instr {
		fr.res.SpillReloads++
		return &ir.Instr{Op: op(c, ir.OpFReload, ir.OpIReload), Defs: []ir.Reg{phys}, Imm: int64(base + fr.slot.get(r))}
	}
	store := func(c ir.Class, r, phys ir.Reg) *ir.Instr {
		fr.res.SpillStores++
		return &ir.Instr{Op: op(c, ir.OpFSpill, ir.OpISpill), Uses: []ir.Reg{phys}, Imm: int64(base + fr.slot.get(r))}
	}
	// inReg tracks which register holds a marked register's value right
	// now within the block (NoReg: memory only); gap pairs each register
	// reloaded into scratch for the current instruction with its scratch.
	inReg := map[ir.Reg]ir.Reg{}
	var gap []ir.Reg
	for _, b := range f.Blocks {
		out := make([]*ir.Instr, 0, len(b.Instrs))
		clear(inReg)
		for i, in := range b.Instrs {
			useSlot := fr.lv.ReadSlot(b, i)
			var next [ir.ClassFP + 1]int
			take := func(c ir.Class) ir.Reg {
				s := fr.scratch(c)
				p := s[next[c]%len(s)]
				next[c]++
				return encode(c, p)
			}
			gap = gap[:0]
			for k, u := range in.Uses {
				if !u.IsVirt() {
					continue
				}
				c := f.VRegs[u.VirtIndex()].Class
				if pc := fr.pieceAt(u, useSlot); pc != nil {
					phys := encode(c, pc.phys)
					if fr.slot.get(u) > 0 && inReg[u] != phys {
						out = append(out, reload(c, u, phys))
						inReg[u] = phys
					}
					in.Uses[k] = phys
					continue
				}
				phys := ir.NoReg
				for j := 0; j < len(gap); j += 2 {
					if gap[j] == u {
						phys = gap[j+1]
						break
					}
				}
				if phys == ir.NoReg {
					phys = take(c)
					out = append(out, reload(c, u, phys))
					gap = append(gap, u, phys)
				}
				in.Uses[k] = phys
			}
			out = append(out, in)
			for k, d := range in.Defs {
				if !d.IsVirt() {
					continue
				}
				c := f.VRegs[d.VirtIndex()].Class
				marked := fr.slot.get(d) > 0
				var phys ir.Reg
				if pc := fr.pieceAt(d, useSlot+1); pc != nil {
					phys = encode(c, pc.phys)
					if marked {
						inReg[d] = phys
					}
				} else {
					phys = take(c)
				}
				in.Defs[k] = phys
				if marked {
					out = append(out, store(c, d, phys))
				}
			}
		}
		b.Instrs = out
	}
	f.SpillSlots += fr.nslots
	f.NumFPRegs = fr.opts.Cfg.NumRegs
}
