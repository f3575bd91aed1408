package regalloc

import (
	"math/rand"
	"sync"

	"prescount/internal/ir"
)

// allocOrderCache memoizes the FP allocation orders per file size.
var allocOrderCache sync.Map // int -> []int

// gprOrder memoizes the ascending GPR candidate order: candidates() asks
// for it once per assignOne, and it never changes. The slice is shared:
// callers must not modify it.
var (
	gprOrderOnce sync.Once
	gprOrderRegs []int
)

func gprOrder() []int {
	gprOrderOnce.Do(func() {
		gprOrderRegs = make([]int, numGPRFile)
		for i := range gprOrderRegs {
			gprOrderRegs[i] = i
		}
	})
	return gprOrderRegs
}

// allocOrder returns the default allocation order of the FP file: a fixed,
// deterministic permutation of the register indexes.
//
// Real ABIs allocate registers grouped by role (argument, temporary,
// callee-saved), an order that has no correlation with the index-mod-N bank
// interleaving — which is exactly why the paper's default allocator (`non`)
// conflicts so often. A plain ascending order would accidentally alternate
// banks for adjacently-allocated values and make the baseline unrealistically
// conflict-free, so the model uses a seeded shuffle: deterministic across
// runs and functions, uncorrelated with bank parity.
func allocOrder(numRegs int) []int {
	if v, ok := allocOrderCache.Load(numRegs); ok {
		return v.([]int)
	}
	order := make([]int, numRegs)
	for i := range order {
		order[i] = i
	}
	rng := rand.New(rand.NewSource(0x5ca1ab1e))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	allocOrderCache.Store(numRegs, order)
	return order
}

// candidates returns the ordered physical-register candidate list for r.
// The order encodes all hinting: earlier candidates are preferred both for
// free assignment and for eviction.
func (a *allocator) candidates(r ir.Reg, c ir.Class) []int {
	cands, whole := a.candidateHead(r, c)
	if !whole {
		cands = a.bpcTail(r)
	}
	return cands
}

// candidateHead returns a prefix of candidates(r, c), and whether that
// prefix is the whole list. Only bpc returns a proper prefix — its
// bank-conforming head — and bpcTail then extends the same list with the
// fallback order outside the bank. Building the tail costs a pass over
// the whole register file, which an allocation that finds a free register
// in its bank never needs.
func (a *allocator) candidateHead(r ir.Reg, c ir.Class) (cands []int, whole bool) {
	if c == ir.ClassGPR {
		return gprOrder(), true
	}
	switch a.opts.Method {
	case MethodBPC:
		return a.bpcCandidates(r)
	case MethodBCR:
		return a.bcrCandidates(r), true
	default:
		return allocOrder(a.opts.Cfg.NumRegs), true
	}
}

// bpcCandidates orders FP registers for the PresCount method:
//  1. registers conforming to the assigned bank and (on subgroup files) the
//     group's subgroup displacement — the Hints of Algorithm 2;
//  2. the rest of the assigned bank;
//  3. everything else (keeps the allocator total: the bank assignment is a
//     strong preference, not a hard constraint, because breaking it is
//     cheaper than spilling — paper §III-B).
//
// It returns groups 1 and 2 with whole == false when r has a bank; bpcTail
// appends group 3. The subgroup bookkeeping runs here, once per call.
func (a *allocator) bpcCandidates(r ir.Reg) (cands []int, whole bool) {
	cfg := a.opts.Cfg
	// Spill pseudo-registers inherit the bank of the register they stand
	// in for, so reload/store sites keep the RCG coloring.
	r = a.hintSource(r)
	hint := a.bankHint.get(r)
	if hint == 0 {
		return allocOrder(cfg.NumRegs), true
	}
	a.candBank = int(hint) - 1
	displ := -1
	if cfg.HasSubgroups() {
		displ = a.subgroupDispl(r)
	}
	a.candHead = a.bpcHead(a.candBank, displ)
	return a.candHead, false
}

// bpcHead returns groups 1 and 2 of bpcCandidates for a bank and subgroup
// displacement (-1: none). A head is built on its first use in a run and
// shared by every later one: callers must not modify it.
func (a *allocator) bpcHead(bank, displ int) []int {
	cfg := a.opts.Cfg
	i := bank*(cfg.NumSubgroups+1) + displ + 1
	if a.bpcHeads[i] == nil {
		var h []int
		if displ >= 0 {
			h = cfg.RegsConforming(bank, displ)
		}
		for _, p := range cfg.RegsInBank(bank) {
			if displ < 0 || cfg.Subgroup(p) != displ {
				h = append(h, p)
			}
		}
		a.bpcHeads[i] = h
	}
	return a.bpcHeads[i]
}

// bpcTail completes the list the last bpcCandidates(r) call started: its
// head, which is the whole bank, then the other banks' registers.
// Rather than a blind order, the fallback outside the assigned bank reuses
// the per-instruction avoidance of the bcr heuristic, so a broken bank
// assignment still dodges the hottest conflict partner.
func (a *allocator) bpcTail(r ir.Reg) []int {
	cfg := a.opts.Cfg
	out := append(a.candOut[:0], a.candHead...)
	for _, p := range a.bcrCandidates(a.hintSource(r)) {
		if cfg.Bank(p) != a.candBank {
			out = append(out, p)
		}
	}
	a.candOut = out
	return out
}

// hintSource resolves an allocator-created register (spill pseudo or split
// child) to the register it stands in for; other registers are their own
// source.
func (a *allocator) hintSource(r ir.Reg) ir.Reg {
	if parent := a.pseudoParent.get(r); parent != ir.NoReg {
		return parent
	}
	return r
}

// subgroupDispl implements Algorithm 2's displacement bookkeeping: the
// register's SDG group receives the least-used subgroup the first time any
// member allocates, and every member afterwards reuses it. Split-generated
// registers with no SDG group fall back to the least-used subgroup
// individually.
func (a *allocator) subgroupDispl(r ir.Reg) int {
	g := a.groupOf.get(r)
	if g == 0 {
		// Handle split-generated or free registers: balance individually.
		d := a.minUsedSubgroup()
		a.usage[d]++
		return d
	}
	group := int(g) - 1
	if d, ok := a.res.GroupDispl[group]; ok {
		return d
	}
	d := a.minUsedSubgroup()
	a.res.GroupDispl[group] = d
	// Increase the usage of the subgroup by the group's size.
	a.usage[d] += a.groupSize[group]
	return d
}

func (a *allocator) minUsedSubgroup() int {
	best := 0
	for s := 1; s < len(a.usage); s++ {
		if a.usage[s] < a.usage[best] {
			best = s
		}
	}
	return best
}

// bcrCandidates implements the Intel-GC-style baseline: when allocating r,
// look at ONE conflict-relevant instruction using r — the hottest site —
// and prefer free registers outside the banks of that instruction's
// already-assigned partner operands. Restricting the hint to a single
// instruction is the paper's stated limitation of the bcr heuristic ("it
// does not model bank conflict restrictions more than a single
// instruction", §V); registers read by several instructions with different
// partners therefore keep residual conflicts that the RCG-based bpc
// removes. The hint never forces anything: if every bank is "bad",
// allocation proceeds in default order (bcr avoids spills at the price of
// conflicts, §IV-A2).
func (a *allocator) bcrCandidates(r ir.Reg) []int {
	cfg := a.opts.Cfg
	r = a.hintSource(r)
	site := a.hottestConflictSite(r)
	if cap(a.bcrAvoid) < cfg.NumBanks {
		a.bcrAvoid = make([]bool, cfg.NumBanks)
	} else {
		a.bcrAvoid = a.bcrAvoid[:cfg.NumBanks]
		clear(a.bcrAvoid)
	}
	avoid := a.bcrAvoid
	any := false
	if site != nil {
		for i, u := range site.Uses {
			if site.Op.UseClass(i) != ir.ClassFP || u == r || !u.IsVirt() {
				continue
			}
			if p, ok := a.physIndex(u); ok {
				avoid[cfg.Bank(p)] = true
				any = true
			}
		}
	}
	all := allocOrder(cfg.NumRegs)
	if !any {
		return all
	}
	good := a.bcrGood[:0]
	bad := a.bcrBad[:0]
	for _, p := range all {
		if avoid[cfg.Bank(p)] {
			bad = append(bad, p)
		} else {
			good = append(good, p)
		}
	}
	good = append(good, bad...)
	a.bcrGood, a.bcrBad = good, bad
	return good
}

// hottestConflictSite returns the conflict-relevant instruction reading r
// whose enclosing block has the highest estimated frequency (the site a
// single-instruction heuristic would optimize for), or nil.
func (a *allocator) hottestConflictSite(r ir.Reg) *ir.Instr {
	if !a.sitesBuilt {
		a.sitesBuilt = true
		a.conflictSite.reset(len(a.f.VRegs))
		a.siteCost.reset(len(a.f.VRegs))
		for _, b := range a.f.Blocks {
			cost := a.cf.InstrCost(b)
			for _, in := range b.Instrs {
				if !in.Op.IsConflictRelevant() {
					continue
				}
				for i, u := range in.Uses {
					if in.Op.UseClass(i) != ir.ClassFP || !u.IsVirt() {
						continue
					}
					if a.conflictSite.get(u) == nil || cost > a.siteCost.get(u) {
						a.conflictSite.set(u, in)
						a.siteCost.set(u, cost)
					}
				}
			}
		}
	}
	return a.conflictSite.get(r)
}
