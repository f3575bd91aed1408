// Package assign implements the register bank assigners compared in the
// paper:
//
//   - the PresCount assigner (Algorithm 1): RCG coloring in decreasing
//     conflict-cost order, bank-pressure-prioritized color choice, an
//     overall-register-pressure (THRES) trade-off for uncolorable nodes,
//     and balancing hints for free registers that are absent from the RCG;
//   - helpers consumed by the bcr baseline, which performs its greedy
//     per-instruction hinting inside the allocator itself (see
//     internal/regalloc).
//
// The assigner runs between pre-allocation scheduling and register
// allocation (Figure 4); it never modifies the IR, only produces a
// bank-per-vreg map consumed as allocation constraints/hints.
package assign

import (
	"prescount/internal/bankfile"
	"prescount/internal/ir"
	"prescount/internal/liveness"
	"prescount/internal/pressure"
	"prescount/internal/rcg"
)

// DefaultTHRES is the default overall-register-pressure threshold of
// Algorithm 1: above it, uncolorable nodes pick banks by pressure (spill
// avoidance); below it, by accumulated neighbour conflict cost.
const DefaultTHRES = 0.9

// Result is the outcome of bank assignment.
type Result struct {
	// BankOf maps each processed virtual register to its bank.
	BankOf map[ir.Reg]int
	// Forced lists registers that received a conflicting color (uncolorable
	// nodes of Algorithm 1); their conflicts remain in the code.
	Forced []ir.Reg
	// FreeHints maps RCG-absent FP vregs to a balancing bank hint.
	FreeHints map[ir.Reg]int
}

// Options configures the PresCount assigner.
type Options struct {
	// THRES is the overall register pressure threshold; zero means
	// DefaultTHRES.
	THRES float64
	// DisablePressure turns off bank-pressure prioritization (ablation:
	// colors are then chosen by index among available ones).
	DisablePressure bool
	// DisableFreeHints turns off free-register balancing (ablation).
	DisableFreeHints bool
}

// PresCount runs Algorithm 1 over the RCG g and returns the bank
// assignment. lv supplies live intervals for pressure tracking; cfg the
// register file shape.
func PresCount(f *ir.Func, g *rcg.Graph, lv *liveness.Info, cfg bankfile.Config, opts Options) *Result {
	return presCount(f, g, lv, cfg, opts, visitWorklist)
}

// visitFunc calls color once per RCG node, in Algorithm 1's processing
// order. bankOf is the assigner's dense table (per VirtIndex, 1 + the
// node's bank, 0 while uncolored); color fills v's entry.
type visitFunc func(g *rcg.Graph, bankOf []int32, color func(v ir.Reg))

// presCount is PresCount with the processing order supplied by visit, so
// the tests can run the same coloring step in the reference order.
func presCount(f *ir.Func, g *rcg.Graph, lv *liveness.Info, cfg bankfile.Config, opts Options, visit visitFunc) *Result {
	thres := opts.THRES
	if thres == 0 {
		thres = DefaultTHRES
	}
	res := &Result{FreeHints: make(map[ir.Reg]int)}
	// bankOf holds, per VirtIndex, 1 + the bank Algorithm 1 gave the
	// register (0: not colored yet); Result.BankOf is filled from it once,
	// after the last component.
	bankOf := make([]int32, len(f.VRegs))
	tracker := pressure.NewTracker(cfg, lv.NumSlots())
	// A second tracker follows only intervals that live across a call:
	// those can only realize their bank in the (small) callee-saved subset,
	// so their pressure must be balanced separately or the allocator will
	// be forced to break the assignment (CSR-aware bank pressure).
	crossTracker := pressure.NewTracker(cfg, lv.NumSlots())
	callSlots := callSites(f, lv)
	crosses := func(iv *liveness.Interval) bool {
		if iv == nil {
			return false
		}
		for _, s := range callSlots {
			if iv.Covers(s) {
				return true
			}
		}
		return false
	}
	regPressure := pressure.OverallRegPressure(lv.MaxPressure(ir.ClassFP), cfg)
	allBanks := make([]int, cfg.NumBanks)
	for i := range allBanks {
		allBanks[i] = i
	}
	commit := func(bank int, iv *liveness.Interval) {
		if iv == nil {
			return
		}
		tracker.Add(bank, iv)
		if crosses(iv) {
			crossTracker.Add(bank, iv)
		}
	}
	// calleeCap[b] is how many callee-saved registers bank b offers: the
	// capacity available to call-crossing intervals.
	calleeCap := make([]int, cfg.NumBanks)
	for p := 0; p < cfg.NumRegs; p++ {
		if !ir.CallerSavedFPR(p, cfg.NumRegs) {
			calleeCap[cfg.Bank(p)]++
		}
	}
	// pick returns the best bank among the candidates: the head of the old
	// ranking orders, computed as a single allocation-free argmin scan so
	// the probe-heavy inner loop of Algorithm 1 never sorts or copies.
	pick := func(candidates []int, iv *liveness.Interval) int {
		if opts.DisablePressure || iv == nil {
			min := candidates[0]
			for _, b := range candidates[1:] {
				if b < min {
					min = b
				}
			}
			return min
		}
		if crosses(iv) {
			// Choose by remaining callee-saved slack (capacity minus
			// crossing pressure), most slack first; ties fall back to
			// overall pressure, then bank index.
			best, bestSlack, bestP := -1, 0, 0
			for _, b := range candidates {
				s := calleeCap[b] - crossTracker.PressureIfAdded(b, iv)
				p := tracker.PressureIfAdded(b, iv)
				if best < 0 || s > bestSlack ||
					(s == bestSlack && (p < bestP || (p == bestP && b < best))) {
					best, bestSlack, bestP = b, s, p
				}
			}
			return best
		}
		return tracker.BestBank(candidates, iv)
	}

	usedBuf := make([]bool, cfg.NumBanks)
	availBuf := make([]int, 0, cfg.NumBanks)
	costBuf := make([]float64, cfg.NumBanks)
	visit(g, bankOf, func(v ir.Reg) {
		availBuf = availableBanks(g, bankOf, v, cfg.NumBanks, usedBuf, availBuf)
		var bank int
		switch {
		case len(availBuf) > 0:
			bank = pick(availBuf, lv.IntervalOf(v))
		case regPressure > thres:
			bank = pick(allBanks, lv.IntervalOf(v))
			res.Forced = append(res.Forced, v)
		default:
			bank = neighbourCostBest(g, bankOf, v, allBanks, costBuf)
			res.Forced = append(res.Forced, v)
		}
		bankOf[v.VirtIndex()] = int32(bank) + 1
		commit(bank, lv.IntervalOf(v))
	})

	res.BankOf = make(map[ir.Reg]int, len(g.Nodes))
	for _, r := range g.Nodes {
		if b := bankOf[r.VirtIndex()]; b != 0 {
			res.BankOf[r] = int(b) - 1
		}
	}

	// Free registers: FP vregs not in the RCG get balancing hints so the
	// allocator does not pile them into one bank (paper §III-B, last
	// paragraph).
	if !opts.DisableFreeHints {
		for idx, info := range f.VRegs {
			if info.Class != ir.ClassFP || bankOf[idx] != 0 {
				continue
			}
			r := ir.VReg(idx)
			iv := lv.IntervalOf(r)
			if iv == nil || iv.Empty() {
				continue
			}
			b := pick(allBanks, iv)
			res.FreeHints[r] = b
			commit(b, iv)
		}
	}
	return res
}

// callSites returns the read slots of every call instruction; intervals
// covering one of them live across a call.
func callSites(f *ir.Func, lv *liveness.Info) []int {
	var out []int
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if in.Op == ir.OpCall {
				out = append(out, lv.ReadSlot(b, i))
			}
		}
	}
	return out
}

// visitWorklist is Algorithm 1's processing order. Components go in
// descending max-cost order. A component is connected and the worklist
// takes in every uncolored neighbour of each node it colors, so one seed
// per component, its maximum-Cost_R node (ties to the smaller register),
// reaches all of it. The worklist is a heap under MaxCostDegree's strict
// total key, so its head is the node a scan of the list would pick;
// queued holds one byte per register for "entered the worklist".
func visitWorklist(g *rcg.Graph, bankOf []int32, color func(v ir.Reg)) {
	queued := make([]bool, len(bankOf))
	var work workHeap
	for _, comp := range g.Components() {
		seed := comp[0]
		for _, r := range comp[1:] {
			if g.Cost(r) > g.Cost(seed) {
				seed = r
			}
		}
		work.push(g, seed)
		queued[seed.VirtIndex()] = true
		for len(work) > 0 {
			v := work.pop().r
			color(v)
			for _, n := range g.Neighbors(v) {
				if i := n.VirtIndex(); bankOf[i] == 0 && !queued[i] {
					work.push(g, n)
					queued[i] = true
				}
			}
		}
	}
}

// workEntry is one worklist entry: a register with its MaxCostDegree key.
type workEntry struct {
	cost float64
	deg  int32
	r    ir.Reg
}

// workHeap is Algorithm 1's worklist: a binary heap whose head is the
// entry with the highest conflict cost, then the highest degree, then the
// smallest register (MaxCostDegree).
type workHeap []workEntry

func (h workHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	if a.cost != b.cost {
		return a.cost > b.cost
	}
	if a.deg != b.deg {
		return a.deg > b.deg
	}
	return a.r < b.r
}

func (h *workHeap) push(g *rcg.Graph, r ir.Reg) {
	*h = append(*h, workEntry{g.Cost(r), int32(g.Degree(r)), r})
	q := *h
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *workHeap) pop() workEntry {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q.less(j2, j) {
			j = j2
		}
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q
	return top
}

// availableBanks returns ALLCOLORS minus the banks of v's colored
// neighbours, appending into avail[:0]; bankOf is Algorithm 1's dense
// 1 + bank table, used the caller's reusable per-bank scratch (length
// numBanks).
func availableBanks(g *rcg.Graph, bankOf []int32, v ir.Reg, numBanks int, used []bool, avail []int) []int {
	clear(used)
	for _, n := range g.Neighbors(v) {
		if b := bankOf[n.VirtIndex()]; b != 0 {
			used[b-1] = true
		}
	}
	avail = avail[:0]
	for b := 0; b < numBanks; b++ {
		if !used[b] {
			avail = append(avail, b)
		}
	}
	return avail
}

// neighbourCostBest returns the bank minimizing the accumulated Cost_R of
// v's same-colored neighbours, ties to the smaller bank: the
// low-register-pressure branch of Algorithm 1, which minimizes the conflict
// penalty kept in the code. cost is the caller's reusable per-bank scratch.
// Equivalent to taking the head of the full ascending (cost, bank) ordering.
func neighbourCostBest(g *rcg.Graph, bankOf []int32, v ir.Reg, banks []int, cost []float64) int {
	clear(cost)
	for _, n := range g.Neighbors(v) {
		if b := bankOf[n.VirtIndex()]; b != 0 {
			cost[b-1] += g.Cost(n)
		}
	}
	best := banks[0]
	for _, b := range banks[1:] {
		if cost[b] < cost[best] || (cost[b] == cost[best] && b < best) {
			best = b
		}
	}
	return best
}

// Validate checks an assignment against the RCG: it returns the edges whose
// endpoints share a bank (the conflicts Algorithm 1 could not remove).
func Validate(g *rcg.Graph, bankOf map[ir.Reg]int) [][2]ir.Reg {
	var bad [][2]ir.Reg
	for _, a := range g.Nodes {
		for _, b := range g.Neighbors(a) {
			if a < b && bankOf[a] == bankOf[b] {
				bad = append(bad, [2]ir.Reg{a, b})
			}
		}
	}
	return bad
}
