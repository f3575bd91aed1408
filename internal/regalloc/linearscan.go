package regalloc

import (
	"fmt"
	"sort"

	"prescount/internal/cfg"
	"prescount/internal/ir"
	"prescount/internal/liveness"
)

// RunLinearScan allocates f with the classic Poletto-Sarkar linear-scan
// algorithm instead of the greedy priority-queue allocator, optionally
// consuming PresCount bank assignments as allocation-order hints.
//
// This implements the paper's future-work direction of "incorporating
// PresCount with other RA methods": the bank assigner is allocator-agnostic
// (it only produces a bank per virtual register), so any allocator that can
// order its physical-register candidates benefits. Linear scan here
// supports MethodNon and MethodBPC; the bcr baseline is defined in terms of
// the greedy allocator's assignment timing and is not offered.
//
// Spilled virtual registers live on the stack and are accessed through a
// small set of reserved scratch registers, the textbook linear-scan
// arrangement (the greedy allocator instead re-queues per-use pseudo
// intervals).
func RunLinearScan(f *ir.Func, opts Options) (*Result, error) {
	opts.Cfg = opts.Cfg.Normalize()
	if err := opts.Cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.Method == MethodBCR {
		return nil, fmt.Errorf("regalloc: linear scan does not implement the bcr baseline")
	}
	const (
		fpScratch  = 3 // FMA reads three FP operands
		gprScratch = 2
	)
	if opts.Cfg.NumRegs <= fpScratch {
		return nil, fmt.Errorf("regalloc: FP file of %d registers too small for linear scan scratch", opts.Cfg.NumRegs)
	}

	ls := &linearScan{
		f:    f,
		opts: opts,
		res: &Result{
			AssignedPhys: map[ir.Reg]int{},
			GroupDispl:   map[int]int{},
		},
		assignment: map[ir.Reg]int{},
		spillSlot:  map[ir.Reg]int{},
	}
	if ac := opts.Analyses; ac != nil {
		ls.cf = ac.CFG()
		ls.lv = ac.Liveness()
	} else {
		ls.cf = cfg.Compute(f)
		ls.lv = liveness.Compute(f, ls.cf)
	}
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if in.Op == ir.OpCall {
				ls.callSlots = append(ls.callSlots, ls.lv.ReadSlot(b, i))
			}
		}
	}

	// Reserve the highest register indexes as scratch.
	ls.fpScratch = make([]int, 0, fpScratch)
	for i := opts.Cfg.NumRegs - fpScratch; i < opts.Cfg.NumRegs; i++ {
		ls.fpScratch = append(ls.fpScratch, i)
	}
	ls.gprScratch = []int{numGPRFile - gprScratch, numGPRFile - 1}

	ls.scan(ir.ClassFP)
	ls.scan(ir.ClassGPR)
	if opts.Record {
		record(ls.res, f, ls.lv, mapLookup(ls.assignment), ls.lv.IntervalOf, mapLookup(ls.spillSlot))
	}
	ls.materialize()
	f.MarkMutated()
	if ac := opts.Analyses; ac != nil {
		ac.RetainCFG() // spill code and operand rewrites keep control flow
	}
	return ls.res, f.Verify()
}

type linearScan struct {
	f    *ir.Func
	opts Options
	res  *Result
	cf   *cfg.Info
	lv   *liveness.Info

	assignment map[ir.Reg]int
	spillSlot  map[ir.Reg]int
	fpScratch  []int
	gprScratch []int
	callSlots  []int
}

// spansCall reports whether the interval covers any call site, making
// caller-saved registers unusable for it.
func (ls *linearScan) spansCall(iv *liveness.Interval) bool {
	for _, s := range ls.callSlots {
		if iv.Covers(s) {
			return true
		}
	}
	return false
}

type lsActive struct {
	r    ir.Reg
	phys int
	end  int
}

// scan performs one linear scan over the class's intervals.
func (ls *linearScan) scan(c ir.Class) {
	type entry struct {
		r  ir.Reg
		iv *liveness.Interval
	}
	var entries []entry
	for idx, info := range ls.f.VRegs {
		if info.Class != c {
			continue
		}
		iv := ls.lv.Intervals[idx]
		if iv == nil || iv.Empty() {
			continue
		}
		entries = append(entries, entry{ir.VReg(idx), iv})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].iv.Start() != entries[j].iv.Start() {
			return entries[i].iv.Start() < entries[j].iv.Start()
		}
		return entries[i].r < entries[j].r
	})

	numRegs := ls.opts.Cfg.NumRegs
	if c == ir.ClassGPR {
		numRegs = numGPRFile
	}
	reserved := make([]bool, numRegs)
	for _, s := range ls.scratch(c) {
		reserved[s] = true
	}

	occupied := make([]bool, numRegs)
	var active []lsActive

	for _, e := range entries {
		// Expire intervals that ended before this start.
		keep := active[:0]
		for _, a := range active {
			if a.end > e.iv.Start() {
				keep = append(keep, a)
			} else {
				occupied[a.phys] = false
			}
		}
		active = keep

		crossesCall := ls.spansCall(e.iv)
		phys := -1
		for _, p := range ls.order(e.r, c, numRegs) {
			if reserved[p] || occupied[p] {
				continue
			}
			if crossesCall && callerSaved(c, p, numRegs) {
				continue
			}
			phys = p
			break
		}
		if phys >= 0 {
			occupied[phys] = true
			active = append(active, lsActive{e.r, phys, e.iv.End()})
			ls.place(e.r, c, phys)
			continue
		}
		// Spill: evict the active interval with the furthest end if it
		// out-lives the current one (classic heuristic) and its register
		// is legal for the current interval; otherwise spill the current
		// interval.
		victimIdx := -1
		for i, a := range active {
			if crossesCall && callerSaved(c, a.phys, numRegs) {
				continue
			}
			if victimIdx < 0 || a.end > active[victimIdx].end {
				victimIdx = i
			}
		}
		if victimIdx >= 0 && active[victimIdx].end > e.iv.End() {
			victim := active[victimIdx]
			ls.spillReg(victim.r)
			delete(ls.assignment, victim.r)
			delete(ls.res.AssignedPhys, victim.r)
			active[victimIdx] = lsActive{e.r, victim.phys, e.iv.End()}
			ls.place(e.r, c, victim.phys)
			ls.res.Evictions++
		} else {
			ls.spillReg(e.r)
		}
	}
}

// callerSaved reports whether register p of class c is clobbered by calls.
func callerSaved(c ir.Class, p, numRegs int) bool {
	if c == ir.ClassFP {
		return ir.CallerSavedFPR(p, numRegs)
	}
	return ir.CallerSavedGPR(p)
}

func (ls *linearScan) scratch(c ir.Class) []int {
	if c == ir.ClassFP {
		return ls.fpScratch
	}
	return ls.gprScratch
}

// order returns candidate registers: for bpc, the PresCount bank first.
func (ls *linearScan) order(r ir.Reg, c ir.Class, numRegs int) []int {
	if c == ir.ClassGPR {
		return sortedRegs(numRegs)
	}
	if ls.opts.Method != MethodBPC {
		return allocOrder(numRegs)
	}
	bank, ok := ls.opts.BankOf[r]
	if !ok {
		bank, ok = ls.opts.FreeHints[r]
	}
	if !ok {
		return allocOrder(numRegs)
	}
	cfgFile := ls.opts.Cfg
	out := make([]int, 0, numRegs)
	seen := make([]bool, numRegs)
	for _, p := range cfgFile.RegsConforming(bank, -1) {
		out = append(out, p)
		seen[p] = true
	}
	for _, p := range allocOrder(numRegs) {
		if !seen[p] {
			out = append(out, p)
		}
	}
	return out
}

func (ls *linearScan) place(r ir.Reg, c ir.Class, p int) {
	ls.assignment[r] = p
	if c == ir.ClassFP {
		ls.res.AssignedPhys[r] = p
		if ls.opts.Method == MethodBPC {
			if want, ok := ls.opts.BankOf[r]; ok && want != ls.opts.Cfg.Bank(p) {
				ls.res.BankBreaks++
			}
		}
	}
}

func (ls *linearScan) spillReg(r ir.Reg) {
	if _, done := ls.spillSlot[r]; done {
		return
	}
	ls.spillSlot[r] = ls.f.SpillSlots
	ls.f.SpillSlots++
	ls.res.SpilledVRegs++
}

// materialize rewrites operands to physical registers and channels spilled
// registers through the reserved scratch set.
func (ls *linearScan) materialize() {
	classOf := func(r ir.Reg) ir.Class { return ls.f.VRegs[r.VirtIndex()].Class }
	encode := func(r ir.Reg, p int) ir.Reg {
		if classOf(r) == ir.ClassFP {
			return ir.FReg(p)
		}
		return ir.XReg(p)
	}
	for _, b := range ls.f.Blocks {
		out := make([]*ir.Instr, 0, len(b.Instrs))
		for _, in := range b.Instrs {
			nextScratch := map[ir.Class]int{}
			take := func(c ir.Class) int {
				s := ls.scratch(c)
				i := nextScratch[c] % len(s)
				nextScratch[c]++
				return s[i]
			}
			reloaded := map[ir.Reg]ir.Reg{}
			for k, u := range in.Uses {
				if !u.IsVirt() {
					continue
				}
				if slot, spilled := ls.spillSlot[u]; spilled {
					phys, ok := reloaded[u]
					if !ok {
						c := classOf(u)
						p := take(c)
						phys = encode(u, p)
						op := ir.OpFReload
						if c == ir.ClassGPR {
							op = ir.OpIReload
						}
						out = append(out, &ir.Instr{Op: op, Defs: []ir.Reg{phys}, Imm: int64(slot)})
						ls.res.SpillReloads++
						reloaded[u] = phys
					}
					in.Uses[k] = phys
					continue
				}
				in.Uses[k] = encode(u, ls.assignment[u])
			}
			out = append(out, in)
			for k, d := range in.Defs {
				if !d.IsVirt() {
					continue
				}
				if slot, spilled := ls.spillSlot[d]; spilled {
					c := classOf(d)
					p := take(c)
					phys := encode(d, p)
					in.Defs[k] = phys
					op := ir.OpFSpill
					if c == ir.ClassGPR {
						op = ir.OpISpill
					}
					out = append(out, &ir.Instr{Op: op, Uses: []ir.Reg{phys}, Imm: int64(slot)})
					ls.res.SpillStores++
					continue
				}
				in.Defs[k] = encode(d, ls.assignment[d])
			}
		}
		b.Instrs = out
	}
	ls.f.NumFPRegs = ls.opts.Cfg.NumRegs
}
