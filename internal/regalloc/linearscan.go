package regalloc

import (
	"fmt"
	"sort"

	"prescount/internal/ir"
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
	if opts.Method == MethodBCR {
		return nil, fmt.Errorf("regalloc: linear scan does not implement the bcr baseline")
	}
	fr, err := newFrame(f, opts, false)
	if err != nil {
		return nil, err
	}
	if err := fr.reserveAll(); err != nil {
		return nil, err
	}
	fr.scan(ir.ClassFP)
	fr.scan(ir.ClassGPR)
	return fr.finish()
}

type lsActive struct {
	r    ir.Reg
	phys int
	end  int
}

// scan is linear scan's decision loop for one class: intervals in start
// order, each placed whole in the first free legal register or, when none
// is free, evicting the active interval that ends last.
func (fr *frame) scan(c ir.Class) {
	lv := fr.lv
	regs := fr.regs(c)
	sort.Slice(regs, func(i, j int) bool {
		si, sj := lv.IntervalOf(regs[i]).Start(), lv.IntervalOf(regs[j]).Start()
		if si != sj {
			return si < sj
		}
		return regs[i] < regs[j]
	})

	occupied := make([]bool, fr.numRegs(c))
	var active []lsActive

	for _, r := range regs {
		iv := lv.IntervalOf(r)
		// Expire intervals that ended before this start.
		keep := active[:0]
		for _, a := range active {
			if a.end > iv.Start() {
				keep = append(keep, a)
			} else {
				occupied[a.phys] = false
			}
		}
		active = keep

		crossesCall := fr.spansCall(iv)
		phys := -1
		for _, p := range fr.scanOrder(r, c) {
			if fr.legal(c, p, crossesCall) && !occupied[p] {
				phys = p
				break
			}
		}
		if phys >= 0 {
			occupied[phys] = true
			active = append(active, lsActive{r, phys, iv.End()})
			fr.scanPlace(r, c, phys)
			continue
		}
		// Spill: evict the active interval with the furthest end if it
		// out-lives the current one (classic heuristic) and its register
		// is legal for the current interval; otherwise spill the current
		// interval.
		victimIdx := -1
		for i, a := range active {
			if !fr.legal(c, a.phys, crossesCall) {
				continue
			}
			if victimIdx < 0 || a.end > active[victimIdx].end {
				victimIdx = i
			}
		}
		if victimIdx >= 0 && active[victimIdx].end > iv.End() {
			victim := active[victimIdx]
			fr.mark(victim.r)
			fr.pieces.set(victim.r, nil)
			active[victimIdx] = lsActive{r, victim.phys, iv.End()}
			fr.scanPlace(r, c, victim.phys)
			fr.res.Evictions++
		} else {
			fr.mark(r)
		}
	}
}

// scanOrder returns r's candidate registers: for bpc, the PresCount bank
// first.
func (fr *frame) scanOrder(r ir.Reg, c ir.Class) []int {
	if c == ir.ClassGPR || fr.opts.Method != MethodBPC {
		return fr.order(c)
	}
	bank, ok := fr.opts.BankOf[r]
	if !ok {
		bank, ok = fr.opts.FreeHints[r]
	}
	if !ok {
		return fr.order(c)
	}
	numRegs := fr.opts.Cfg.NumRegs
	out := make([]int, 0, numRegs)
	seen := make([]bool, numRegs)
	for _, p := range fr.opts.Cfg.RegsConforming(bank, -1) {
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

// scanPlace places r whole in p, counting a bpc bank break when p is
// outside r's PresCount bank.
func (fr *frame) scanPlace(r ir.Reg, c ir.Class, p int) {
	fr.place(r, p, fr.lv.IntervalOf(r))
	if c == ir.ClassFP && fr.opts.Method == MethodBPC {
		if want, ok := fr.opts.BankOf[r]; ok && want != fr.opts.Cfg.Bank(p) {
			fr.res.BankBreaks++
		}
	}
}
