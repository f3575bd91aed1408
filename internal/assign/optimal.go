package assign

import (
	"math"
	"sort"

	"prescount/internal/ir"
	"prescount/internal/rcg"
)

// OptimalLimit is the default node-count cap per RCG component for the
// exact assigner; branch and bound is exponential in the worst case.
const OptimalLimit = 24

// OptimalResult is the outcome of exact bank assignment.
type OptimalResult struct {
	// BankOf is the cost-minimal assignment (per component; components are
	// independent, so the union is globally minimal).
	BankOf map[ir.Reg]int
	// Cost is the total weighted residual conflict cost: the sum of
	// EdgeWeight over RCG edges whose endpoints share a bank.
	Cost float64
	// Exact reports whether every component was solved exactly; large
	// components fall back to the PresCount coloring and clear the flag.
	Exact bool
}

// Optimal computes a minimum-residual-cost bank assignment of the RCG by
// branch and bound over each connected component. It ignores register
// pressure — it is the pure conflict-cost lower bound that Algorithm 1's
// heuristic can be compared against (the role PBQP/ILP formulations play
// in the register-allocation literature the paper cites).
//
// Components larger than limit (OptimalLimit if 0) are assigned with the
// PresCount heuristic instead and Exact is cleared.
func Optimal(g *rcg.Graph, numBanks, limit int) *OptimalResult {
	if limit <= 0 {
		limit = OptimalLimit
	}
	res := &OptimalResult{BankOf: map[ir.Reg]int{}, Exact: true}
	for _, comp := range g.Components() {
		if len(comp) > limit {
			res.Exact = false
			fallbackComponent(g, comp, numBanks, res.BankOf)
			res.Cost += residualCost(g, comp, res.BankOf)
			continue
		}
		assign, cost := solveComponent(g, comp, numBanks)
		for r, b := range assign {
			res.BankOf[r] = b
		}
		res.Cost += cost
	}
	return res
}

// ResidualCost returns the weighted conflict cost of an arbitrary
// assignment over the whole graph (edges with same-bank endpoints).
func ResidualCost(g *rcg.Graph, bankOf map[ir.Reg]int) float64 {
	total := 0.0
	for _, a := range g.Nodes {
		for _, b := range g.Neighbors(a) {
			if a < b && bankOf[a] == bankOf[b] {
				total += g.EdgeWeight(a, b)
			}
		}
	}
	return total
}

func residualCost(g *rcg.Graph, comp []ir.Reg, bankOf map[ir.Reg]int) float64 {
	total := 0.0
	for _, a := range comp {
		for _, b := range g.Neighbors(a) {
			if a < b && bankOf[a] == bankOf[b] {
				total += g.EdgeWeight(a, b)
			}
		}
	}
	return total
}

// fallbackComponent colors one oversized component greedily in cost order
// (the pressure-free core of Algorithm 1).
func fallbackComponent(g *rcg.Graph, comp []ir.Reg, numBanks int, out map[ir.Reg]int) {
	order := append([]ir.Reg(nil), comp...)
	sort.Slice(order, func(i, j int) bool {
		if g.Cost(order[i]) != g.Cost(order[j]) {
			return g.Cost(order[i]) > g.Cost(order[j])
		}
		return order[i] < order[j]
	})
	for _, v := range order {
		best, bestCost := 0, math.Inf(1)
		for b := 0; b < numBanks; b++ {
			c := 0.0
			for _, n := range g.Neighbors(v) {
				if nb, ok := out[n]; ok && nb == b {
					c += g.EdgeWeight(v, n)
				}
			}
			if c < bestCost {
				best, bestCost = b, c
			}
		}
		out[v] = best
	}
}

// solveComponent runs branch and bound over one component.
func solveComponent(g *rcg.Graph, comp []ir.Reg, numBanks int) (map[ir.Reg]int, float64) {
	// Order nodes by descending degree within the component for tighter
	// early bounds.
	nodes := append([]ir.Reg(nil), comp...)
	var inComp ir.RegSet
	for _, r := range comp {
		inComp.Add(r)
	}
	deg := func(r ir.Reg) int {
		d := 0
		for _, n := range g.Neighbors(r) {
			if inComp.Has(n) {
				d++
			}
		}
		return d
	}
	sort.Slice(nodes, func(i, j int) bool {
		di, dj := deg(nodes[i]), deg(nodes[j])
		if di != dj {
			return di > dj
		}
		return nodes[i] < nodes[j]
	})

	// Seed the upper bound with the greedy assignment.
	bestAssign := map[ir.Reg]int{}
	fallbackComponent(g, comp, numBanks, bestAssign)
	bestCost := residualCost(g, comp, bestAssign)

	cur := map[ir.Reg]int{}
	var rec func(idx int, cost float64)
	rec = func(idx int, cost float64) {
		if cost >= bestCost {
			return
		}
		if idx == len(nodes) {
			bestCost = cost
			bestAssign = map[ir.Reg]int{}
			for r, b := range cur {
				bestAssign[r] = b
			}
			return
		}
		v := nodes[idx]
		// Symmetry breaking: the first node may take only bank 0; each
		// node may use at most one bank index beyond the maximum used so
		// far (bank labels are interchangeable).
		maxUsed := -1
		for i := 0; i < idx; i++ {
			if b := cur[nodes[i]]; b > maxUsed {
				maxUsed = b
			}
		}
		limit := maxUsed + 1
		if limit >= numBanks {
			limit = numBanks - 1
		}
		for b := 0; b <= limit; b++ {
			extra := 0.0
			for _, n := range g.Neighbors(v) {
				if nb, ok := cur[n]; ok && nb == b {
					extra += g.EdgeWeight(v, n)
				}
			}
			cur[v] = b
			rec(idx+1, cost+extra)
			delete(cur, v)
		}
	}
	rec(0, 0)
	return bestAssign, bestCost
}
