// Package sdg implements the Same Displacement Graph and the SDG-based
// subgroup splitting phase of the paper (§III-C). The SDG is a directed
// graph over virtual FP registers: every vector ALU instruction contributes
// an edge from each FP input operand to its output operand, expressing the
// DSA's subgroup alignment constraint — all operands of one instruction must
// receive the same subgroup displacement. Weakly connected components of the
// SDG are the "subgroup groups" that the register allocator must place into
// a single subgroup.
//
// Large groups defeat balanced subgroup assignment, so the splitting phase
// breaks them at "centered" vertices by inserting register copies:
//
//   - input sharing (Figure 8): a vertex with many outgoing edges (a value
//     read by many operations) is duplicated and half of its readers are
//     redirected to the copy;
//   - output sharing (Figure 9): a vertex with many incoming edges (an
//     accumulator redefined by a reduction chain) has its live range renamed
//     mid-chain through a copy.
//
// Copies do not carry the alignment constraint, so each split disconnects
// the component. The phase runs right after register coalescing so the
// inserted copies are not coalesced back (Figure 4 phase ordering).
package sdg

import (
	"cmp"
	"slices"

	"prescount/internal/ir"
	"prescount/internal/scratch"
)

// DefaultMaxGroup is the default upper bound on subgroup group size before
// splitting is attempted.
const DefaultMaxGroup = 8

// maxRounds caps the split loop; each round inserts at least one copy, so
// this only guards degenerate inputs.
const maxRounds = 256

// Graph is the Same Displacement Graph of a function. Groups reuses
// scratch held in the Graph, so a Graph is not safe for concurrent use.
type Graph struct {
	// edges lists every input->output edge in instruction order, with
	// multiplicity: one per (vector ALU instruction, FP input) pair.
	edges []Edge
	// outDeg and inDeg count each register's outgoing and incoming edges,
	// indexed by virtual register index.
	outDeg, inDeg []int32
	// parent, size and roots are Groups' union-find scratch, reused when
	// Split rebuilds the graph in place after every split.
	parent, size, roots []int32
}

// Edge is one SDG edge: the value of From flows into To through a vector
// ALU instruction, so both must share a subgroup displacement.
type Edge struct{ From, To ir.Reg }

// Build constructs the SDG over virtual FP registers of f.
func Build(f *ir.Func) *Graph {
	g := &Graph{}
	g.build(f)
	return g
}

// build (re)computes g over f, reusing g's slices.
func (g *Graph) build(f *ir.Func) {
	g.edges = g.edges[:0]
	g.outDeg = scratch.Zeroed(g.outDeg, len(f.VRegs))
	g.inDeg = scratch.Zeroed(g.inDeg, len(f.VRegs))
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if !in.Op.IsVectorALU() {
				continue
			}
			d := in.Def()
			if d == ir.NoReg || !d.IsVirt() {
				continue
			}
			for i, u := range in.Uses {
				if in.Op.UseClass(i) != ir.ClassFP || !u.IsVirt() || u == d {
					continue
				}
				g.edges = append(g.edges, Edge{u, d})
				g.outDeg[u.VirtIndex()]++
				g.inDeg[d.VirtIndex()]++
			}
		}
	}
}

// Edges returns the edges sorted by source, then destination, with
// multiplicity.
func (g *Graph) Edges() []Edge {
	out := slices.Clone(g.edges)
	slices.SortFunc(out, func(a, b Edge) int {
		if c := cmp.Compare(a.From, b.From); c != 0 {
			return c
		}
		return cmp.Compare(a.To, b.To)
	})
	return out
}

// OutDegree returns the number of outgoing edges of r.
func (g *Graph) OutDegree(r ir.Reg) int { return degree(g.outDeg, r) }

// InDegree returns the number of incoming edges of r.
func (g *Graph) InDegree(r ir.Reg) int { return degree(g.inDeg, r) }

func degree(deg []int32, r ir.Reg) int {
	if !r.IsVirt() || r.VirtIndex() >= len(deg) {
		return 0
	}
	return int(deg[r.VirtIndex()])
}

// Groups returns the weakly connected components ("subgroup groups") of the
// SDG, each sorted, ordered by decreasing size then smallest member.
//
// A union-find over virtual register indexes builds the components. Union
// hangs the larger root under the smaller, so every root is its
// component's minimum member, and an ascending scan of the indexes meets
// each component's members in sorted order.
func (g *Graph) Groups() [][]ir.Reg {
	n := len(g.outDeg)
	parent := g.parent[:0]
	for i := 0; i < n; i++ {
		parent = append(parent, -1) // -1: not in the graph
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving keeps roots
			x = parent[x]
		}
		return x
	}
	for _, e := range g.edges {
		a, b := int32(e.From.VirtIndex()), int32(e.To.VirtIndex())
		if parent[a] < 0 {
			parent[a] = a
		}
		if parent[b] < 0 {
			parent[b] = b
		}
		if ra, rb := find(a), find(b); ra != rb {
			parent[max(ra, rb)] = min(ra, rb)
		}
	}
	// size[root] counts members; after ordering it holds the group index.
	size := scratch.Zeroed(g.size, n)
	roots := g.roots[:0]
	members := 0
	for i := int32(0); i < int32(n); i++ {
		if parent[i] < 0 {
			continue
		}
		r := find(i)
		if r == i {
			roots = append(roots, i)
		}
		size[r]++
		members++
	}
	slices.SortFunc(roots, func(a, b int32) int {
		if c := cmp.Compare(size[b], size[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	slab := make([]ir.Reg, 0, members)
	groups := make([][]ir.Reg, len(roots))
	for gi, r := range roots {
		lo := len(slab)
		slab = slab[:lo+int(size[r])]
		groups[gi] = slab[lo:lo:len(slab)]
		size[r] = int32(gi)
	}
	for i := int32(0); i < int32(n); i++ {
		if parent[i] >= 0 {
			gi := size[find(i)]
			groups[gi] = append(groups[gi], ir.VReg(int(i)))
		}
	}
	g.parent, g.size, g.roots = parent, size, roots
	return groups
}

// GroupOf returns a map from register to its group index per Groups().
func (g *Graph) GroupOf() map[ir.Reg]int {
	groups := g.Groups()
	n := 0
	for _, grp := range groups {
		n += len(grp)
	}
	out := make(map[ir.Reg]int, n)
	for i, grp := range groups {
		for _, r := range grp {
			out[r] = i
		}
	}
	return out
}

// Stats reports the splitting activity.
type Stats struct {
	// CopiesInserted is the number of fmov instructions added.
	CopiesInserted int
	// GroupsBefore and GroupsAfter count SDG components.
	GroupsBefore, GroupsAfter int
	// LargestBefore and LargestAfter are the biggest component sizes.
	LargestBefore, LargestAfter int
}

// Options configures splitting.
type Options struct {
	// MaxGroup is the component size above which splitting triggers
	// (default DefaultMaxGroup).
	MaxGroup int
}

// Split rewrites f in place, breaking oversized SDG components, and returns
// statistics. The rewrite is semantics-preserving: it only inserts copies
// and renames live ranges.
func Split(f *ir.Func, opts Options) Stats {
	maxGroup := opts.MaxGroup
	if maxGroup <= 0 {
		maxGroup = DefaultMaxGroup
	}
	var st Stats
	g := Build(f)
	groups := g.Groups()
	st.GroupsBefore = len(groups)
	if len(groups) > 0 {
		st.LargestBefore = len(groups[0])
	}

	stall := 0
	prevLargest := st.LargestBefore
	for round := 0; round < maxRounds; round++ {
		if len(groups) == 0 || len(groups[0]) <= maxGroup {
			break
		}
		// Progress guard: if splitting stops shrinking the largest group,
		// give up rather than inserting useless copies.
		if len(groups[0]) >= prevLargest {
			stall++
			if stall > 4 {
				break
			}
		} else {
			stall = 0
		}
		prevLargest = len(groups[0])
		split := false
		for _, grp := range groups {
			if len(grp) <= maxGroup {
				break
			}
			if splitGroup(f, g, grp) {
				st.CopiesInserted++
				split = true
				break // rebuild the graph before the next split
			}
		}
		if !split {
			break // a failed split leaves f untouched: groups stay current
		}
		g.build(f)
		groups = g.Groups()
	}

	st.GroupsAfter = len(groups)
	if len(groups) > 0 {
		st.LargestAfter = len(groups[0])
	}
	if st.CopiesInserted > 0 {
		// Copies and renamed live ranges invalidate liveness and the RCG;
		// control flow is untouched (splits never add blocks), so callers
		// holding an analysis cache may retain the CFG.
		f.MarkMutated()
	}
	return st
}

// splitGroup finds the centered vertex of the group and splits it. Returns
// whether a copy was inserted.
func splitGroup(f *ir.Func, g *Graph, grp []ir.Reg) bool {
	// Pick the member with the highest degree (outgoing preferred on ties:
	// input sharing is the cheaper split).
	var center ir.Reg
	bestDeg := -1
	outCenter := false
	for _, r := range grp {
		if d := g.OutDegree(r); d > bestDeg {
			center, bestDeg, outCenter = r, d, true
		}
	}
	for _, r := range grp {
		if d := g.InDegree(r); d > bestDeg {
			center, bestDeg, outCenter = r, d, false
		}
	}
	if bestDeg < 2 {
		return false
	}
	if outCenter {
		if splitInputSharing(f, center) {
			return true
		}
		return splitOutputSharing(f, center)
	}
	if splitOutputSharing(f, center) {
		return true
	}
	return splitInputSharing(f, center)
}

// splitInputSharing handles Figure 8: a value read by many ALU operations.
// It inserts "r2 = fmov r" before the median reader inside one block and
// redirects the second half of that block's readers to r2. Only applied
// when r has a block with at least two ALU readers and r is not redefined
// between them.
func splitInputSharing(f *ir.Func, r ir.Reg) bool {
	for _, b := range f.Blocks {
		// Collect reader positions within b, stopping at redefinitions.
		var readers []int
		lastDef := -1
		for i, in := range b.Instrs {
			if in.Op.IsVectorALU() && readsFP(in, r) && in.Def() != r {
				readers = append(readers, i)
			}
			for _, d := range in.Defs {
				if d == r {
					lastDef = i
				}
			}
		}
		if len(readers) < 2 {
			continue
		}
		mid := readers[len(readers)/2]
		if lastDef >= readers[len(readers)/2-1] && lastDef < mid {
			// r redefined between the halves; renaming unsafe without more
			// analysis. Skip this block.
			continue
		}
		// Also require no redefinition after mid within the rewritten span.
		unsafe := false
		for i := mid; i < len(b.Instrs); i++ {
			for _, d := range b.Instrs[i].Defs {
				if d == r {
					unsafe = true
				}
			}
		}
		if unsafe {
			continue
		}
		r2 := f.NewVReg(ir.ClassFP)
		b.InsertBefore(mid, &ir.Instr{Op: ir.OpFMov, Defs: []ir.Reg{r2}, Uses: []ir.Reg{r}})
		for i := mid + 1; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			if !in.Op.IsVectorALU() {
				continue
			}
			for k, u := range in.Uses {
				if u == r && in.Op.UseClass(k) == ir.ClassFP {
					in.Uses[k] = r2
				}
			}
		}
		return true
	}
	return false
}

// splitOutputSharing handles Figure 9: an accumulator redefined by a chain
// of reductions. It renames the suffix of the chain within one block
// through a fresh register, inserting one copy at the split point and, if
// the original register is read after the block (or later in the block by
// non-ALU code), a compensating copy back before the terminator.
func splitOutputSharing(f *ir.Func, r ir.Reg) bool {
	for _, b := range f.Blocks {
		// Any redefinition (ALU or copy) participates in the accumulation
		// chain: before coalescing the chain looks like
		// "s = fadd r, x; r = fmov s", after coalescing "r = fadd r, x".
		var defs []int
		for i, in := range b.Instrs {
			for _, d := range in.Defs {
				if d == r {
					defs = append(defs, i)
				}
			}
		}
		if len(defs) < 2 {
			continue
		}
		mid := defs[len(defs)/2]
		r2 := f.NewVReg(ir.ClassFP)
		// Insert "r2 = fmov r" before the mid definition, then rename all
		// subsequent defs and uses of r in this block to r2.
		b.InsertBefore(mid, &ir.Instr{Op: ir.OpFMov, Defs: []ir.Reg{r2}, Uses: []ir.Reg{r}})
		for i := mid + 1; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			for k, u := range in.Uses {
				if u == r {
					in.Uses[k] = r2
				}
			}
			for k, d := range in.Defs {
				if d == r {
					in.Defs[k] = r2
				}
			}
		}
		// If r is observable after this block, restore it.
		if liveAfterBlock(f, b, r) {
			term := len(b.Instrs) - 1
			b.InsertBefore(term, &ir.Instr{Op: ir.OpFMov, Defs: []ir.Reg{r}, Uses: []ir.Reg{r2}})
		}
		return true
	}
	return false
}

func readsFP(in *ir.Instr, r ir.Reg) bool {
	for i, u := range in.Uses {
		if u == r && in.Op.UseClass(i) == ir.ClassFP {
			return true
		}
	}
	return false
}

// liveAfterBlock conservatively reports whether r may be read after block b
// (in any other block, including b itself via a loop).
func liveAfterBlock(f *ir.Func, b *ir.Block, r ir.Reg) bool {
	for _, blk := range f.Blocks {
		if blk == b {
			continue
		}
		for _, in := range blk.Instrs {
			for _, u := range in.Uses {
				if u == r {
					return true
				}
			}
		}
	}
	// Loops back into b itself would re-read r upward-exposed; if b is in a
	// cycle, be conservative.
	return inCycle(b)
}

func inCycle(b *ir.Block) bool {
	seen := map[*ir.Block]bool{}
	var stack []*ir.Block
	stack = append(stack, b.Succs...)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == b {
			return true
		}
		if seen[x] {
			continue
		}
		seen[x] = true
		stack = append(stack, x.Succs...)
	}
	return false
}
