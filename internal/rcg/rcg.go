// Package rcg builds the Register Conflict Graph (RCG) of a function and
// annotates it with the conflict-cost model of the paper (Equations 1 and
// 2). The RCG is the structure PresCount colors: vertices are the virtual
// registers appearing as FP reads of conflict-relevant instructions, and an
// edge joins two registers read by the same instruction (they would collide
// if placed in the same bank). The RCG is a subgraph of the RIG only in the
// sense of sharing vertices; it is built independently (paper §V).
package rcg

import (
	"cmp"
	"slices"

	"prescount/internal/cfg"
	"prescount/internal/ir"
)

// Graph is the annotated register conflict graph. It is stored dense: a
// node index per virtual register, node-indexed Cost_R and site lists, and
// CSR adjacency with the edge weights beside it, so building it costs a
// handful of bulk allocations and every query is a slice index — no map.
type Graph struct {
	// Nodes lists conflicting registers in increasing dense-index order. A
	// register's position in Nodes is its node index.
	Nodes []ir.Reg

	// idx holds, per VirtIndex, 1 + the register's node index (0: not a
	// node).
	idx []int32
	// cost is Cost_R per node (Equation 2): the summed Cost_I of all
	// conflict-relevant instructions reading the register.
	cost []float64
	// Node i's conflict-relevant reading instructions are
	// siteSlab[siteOff[i]:siteOff[i+1]], in block and instruction order.
	siteOff  []int32
	siteSlab []*ir.Instr
	// nbOff/nbSlab are the CSR-style adjacency: node i's neighbours are
	// nbSlab[nbOff[i]:nbOff[i+1]], sorted increasing, and nbW holds the
	// matching edge weights (accumulated Cost_I). Neighbors hands out these
	// slices directly and callers must not mutate them.
	nbOff    []int32
	nbSlab   []ir.Reg
	nbW      []float64
	numEdges int
}

// edgeOcc is one edge between nodes lo < hi with weight w: an occurrence
// while Build reads instructions, a merged edge afterwards.
type edgeOcc struct {
	lo, hi int32
	w      float64
}

// Build constructs the RCG of f using the cost model from cf.
// Only virtual FP registers participate; physical operands (already fixed)
// are ignored, matching a pre-allocation assigner.
func Build(f *ir.Func, cf *cfg.Info) *Graph {
	g := &Graph{idx: make([]int32, len(f.VRegs))}
	var uses []ir.Reg // reused across instructions by conflictUses

	// Pass 1: count each register's conflict sites (in idx for now); the
	// registers with any are the nodes.
	nSites := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if uses = conflictUses(uses[:0], in); len(uses) < 2 {
				continue
			}
			for _, r := range uses {
				g.idx[r.VirtIndex()]++
			}
			nSites += len(uses)
		}
	}
	// Number the nodes in register order and cut their site ranges.
	g.siteOff = []int32{0}
	for vi, cnt := range g.idx {
		if cnt == 0 {
			continue
		}
		g.Nodes = append(g.Nodes, ir.VReg(vi))
		g.siteOff = append(g.siteOff, g.siteOff[len(g.siteOff)-1]+cnt)
		g.idx[vi] = int32(len(g.Nodes))
	}
	n := len(g.Nodes)

	// Pass 2: Cost_R, site lists and edge occurrences, each in block and
	// instruction order.
	g.cost = make([]float64, n)
	g.siteSlab = make([]*ir.Instr, nSites)
	fill := slices.Clone(g.siteOff[:n])
	var occ []edgeOcc
	for _, b := range f.Blocks {
		cost := cf.InstrCost(b)
		for _, in := range b.Instrs {
			if uses = conflictUses(uses[:0], in); len(uses) < 2 {
				continue
			}
			for _, r := range uses {
				i := g.idx[r.VirtIndex()] - 1
				g.cost[i] += cost
				g.siteSlab[fill[i]] = in
				fill[i]++
			}
			for x := 0; x < len(uses); x++ {
				for y := x + 1; y < len(uses); y++ {
					lo, hi := g.idx[uses[x].VirtIndex()]-1, g.idx[uses[y].VirtIndex()]-1
					if lo > hi {
						lo, hi = hi, lo
					}
					occ = append(occ, edgeOcc{lo, hi, cost})
				}
			}
		}
	}
	edges := mergeEdges(occ, n)
	g.numEdges = len(edges)

	// Adjacency: count degrees, prefix-sum into offsets, then fill. edges is
	// grouped by ascending lo and sorted by hi within a group, so filling in
	// that order leaves every node's list sorted: first the lower
	// neighbours (earlier groups), then the higher ones (its own group).
	g.nbOff = make([]int32, n+1)
	for _, e := range edges {
		g.nbOff[e.lo+1]++
		g.nbOff[e.hi+1]++
	}
	for i := 0; i < n; i++ {
		g.nbOff[i+1] += g.nbOff[i]
	}
	g.nbSlab = make([]ir.Reg, g.nbOff[n])
	g.nbW = make([]float64, g.nbOff[n])
	copy(fill, g.nbOff[:n])
	for _, e := range edges {
		g.nbSlab[fill[e.lo]], g.nbW[fill[e.lo]] = g.Nodes[e.hi], e.w
		fill[e.lo]++
		g.nbSlab[fill[e.hi]], g.nbW[fill[e.hi]] = g.Nodes[e.lo], e.w
		fill[e.hi]++
	}
	return g
}

// mergeEdges merges the edge occurrences of n nodes into one edge per
// node pair, grouped by ascending lo and sorted by hi within each group.
// Occurrences are grouped by a stable counting sort, so each edge's weight
// sums its occurrences in their original (program) order.
func mergeEdges(occ []edgeOcc, n int) []edgeOcc {
	off := make([]int32, n+1)
	for _, o := range occ {
		off[o.lo+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	byLo := make([]edgeOcc, len(occ))
	for _, o := range occ {
		byLo[off[o.lo]] = o
		off[o.lo]++
	}
	// at[hi] is 1 + the position of edge (lo, hi) in edges while group lo
	// is being merged; positions from earlier groups fall below start.
	at := make([]int32, n)
	edges := make([]edgeOcc, 0, len(occ))
	for from := 0; from < len(byLo); {
		lo, start := byLo[from].lo, len(edges)
		to := from
		for ; to < len(byLo) && byLo[to].lo == lo; to++ {
			o := byLo[to]
			if k := int(at[o.hi]) - 1; k >= start {
				edges[k].w += o.w
				continue
			}
			at[o.hi] = int32(len(edges) + 1)
			edges = append(edges, o)
		}
		slices.SortFunc(edges[start:], func(a, b edgeOcc) int { return cmp.Compare(a.hi, b.hi) })
		from = to
	}
	return edges
}

// conflictUses appends the distinct virtual FP register reads of a
// conflict-relevant instruction to out (typically a reused scratch buffer
// sliced to length 0); other instructions contribute none.
func conflictUses(out []ir.Reg, in *ir.Instr) []ir.Reg {
	if !in.IsConflictRelevant() {
		return out
	}
	for i, u := range in.Uses {
		if in.Op.UseClass(i) != ir.ClassFP || !u.IsVirt() {
			continue
		}
		if !slices.Contains(out, u) {
			out = append(out, u)
		}
	}
	return out
}

// index returns r's node index, or -1 if r is not a node.
func (g *Graph) index(r ir.Reg) int {
	if !r.IsVirt() || r.VirtIndex() >= len(g.idx) {
		return -1
	}
	return int(g.idx[r.VirtIndex()]) - 1
}

// Cost returns Cost_R of r (Equation 2), or 0 if r is not a node.
func (g *Graph) Cost(r ir.Reg) float64 {
	if i := g.index(r); i >= 0 {
		return g.cost[i]
	}
	return 0
}

// Sites returns the conflict-relevant instructions reading r, in block and
// instruction order (for diagnostics and the bcr baseline). The slices
// share one backing slab; callers must not mutate them.
func (g *Graph) Sites(r ir.Reg) []*ir.Instr {
	i := g.index(r)
	if i < 0 {
		return nil
	}
	return g.siteSlab[g.siteOff[i]:g.siteOff[i+1]:g.siteOff[i+1]]
}

// edge returns the position of edge (a, b) in the adjacency slabs, or -1.
func (g *Graph) edge(a, b ir.Reg) int {
	i := g.index(a)
	if i < 0 {
		return -1
	}
	lo, hi := int(g.nbOff[i]), int(g.nbOff[i+1])
	if k, ok := slices.BinarySearch(g.nbSlab[lo:hi], b); ok {
		return lo + k
	}
	return -1
}

// HasEdge reports whether a and b conflict.
func (g *Graph) HasEdge(a, b ir.Reg) bool { return g.edge(a, b) >= 0 }

// EdgeWeight returns the accumulated Cost_I of the edge (0 if absent).
func (g *Graph) EdgeWeight(a, b ir.Reg) float64 {
	if k := g.edge(a, b); k >= 0 {
		return g.nbW[k]
	}
	return 0
}

// Neighbors returns the conflict neighbours of r in sorted order. The
// returned slice is the slab built by Build and must not be mutated.
func (g *Graph) Neighbors(r ir.Reg) []ir.Reg {
	i := g.index(r)
	if i < 0 {
		return nil
	}
	return g.nbSlab[g.nbOff[i]:g.nbOff[i+1]]
}

// Degree returns the conflict degree of r.
func (g *Graph) Degree(r ir.Reg) int { return len(g.Neighbors(r)) }

// NumEdges returns the number of undirected conflict edges.
func (g *Graph) NumEdges() int { return g.numEdges }

// Components returns the connected components of the RCG, each sorted by
// register, with components ordered by decreasing maximum Cost_R (ties by
// smallest register) — the processing order of Algorithm 1 ("we process
// each subgraph in descending order of conflict cost").
func (g *Graph) Components() [][]ir.Reg {
	n := len(g.Nodes)
	// comp labels each node with 1 + its component, numbered in order of
	// the component's smallest register (the DFS starts scan Nodes, which
	// is in register order); top holds each component's maximum Cost_R.
	comp := make([]int32, n)
	var top []float64
	var stack []int32
	for si := range g.Nodes {
		if comp[si] != 0 {
			continue
		}
		top = append(top, 0)
		c := int32(len(top))
		stack = append(stack[:0], int32(si))
		comp[si] = c
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			top[c-1] = max(top[c-1], g.cost[i])
			for _, nb := range g.nbSlab[g.nbOff[i]:g.nbOff[i+1]] {
				if j := g.index(nb); comp[j] == 0 {
					comp[j] = c
					stack = append(stack, int32(j))
				}
			}
		}
	}
	// Rank the components: maximum cost descending, then smallest register
	// ascending — a strict total order, since the numbering follows the
	// smallest register.
	k := len(top)
	buf := make([]int32, 3*k)
	rank, size, at := buf[:k], buf[k:2*k], buf[2*k:]
	for c := range rank {
		rank[c] = int32(c)
	}
	slices.SortFunc(rank, func(a, b int32) int {
		if c := cmp.Compare(top[b], top[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	// Lay the components out in rank order in one slab and fill it in one
	// pass over Nodes, so each comes out sorted by register.
	for _, c := range comp {
		size[c-1]++
	}
	off := int32(0)
	for _, c := range rank {
		at[c] = off
		off += size[c]
	}
	slab := make([]ir.Reg, n)
	for i, r := range g.Nodes {
		c := comp[i] - 1
		slab[at[c]] = r
		at[c]++
	}
	comps := make([][]ir.Reg, k)
	for i, c := range rank {
		end := at[c]
		comps[i] = slab[end-size[c] : end : end]
	}
	return comps
}
