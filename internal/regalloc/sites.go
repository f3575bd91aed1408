package regalloc

import (
	"slices"
	"sync/atomic"

	"prescount/internal/ir"
	"prescount/internal/scratch"
)

// siteIndex lists, for each virtual register, the instructions it occurs in,
// so spilling a register visits that register's sites instead of the whole
// function. Instructions are numbered globally in layout order, as liveness
// linearizes them, and register v's sites are slab[off[v]:off[v+1]],
// ascending, one entry per instruction however many operands name v.
// blockOf maps an instruction to its block's position in f.Blocks, first
// maps a block position to its first instruction, and calls[g] counts the
// calls among instructions 0..g-1, so a span learns whether a call lies
// between two of its register's sites without visiting what lies between.
//
// The allocator builds the index on a run's first spill. Allocation inserts
// no instruction and rewrites no operand before materialize, so one build
// serves the whole run. The tables are pooled int32 slices: they hold no
// pointer into the function, and reset keeps their arrays for the next run.
type siteIndex struct {
	built   bool
	off     []int32
	slab    []int32
	blockOf []int32
	first   []int32
	calls   []int32
}

// siteVisits counts the sites spill, rematSource and demoteSpan visit,
// process-wide. Package tests read it as a difference to bound the cost of
// spilling per input instruction.
var siteVisits atomic.Int64

// build indexes f's instructions.
func (x *siteIndex) build(f *ir.Func) {
	x.built = true
	nv, n := len(f.VRegs), 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	x.off = scratch.Zeroed(x.off, nv+1)
	x.blockOf = scratch.Zeroed(x.blockOf, n)
	x.first = scratch.Zeroed(x.first, len(f.Blocks))
	x.calls = scratch.Zeroed(x.calls, n+1)
	g := 0
	for bi, b := range f.Blocks {
		x.first[bi] = int32(g)
		for _, in := range b.Instrs {
			x.blockOf[g] = int32(bi)
			x.calls[g+1] = x.calls[g]
			if in.Op == ir.OpCall {
				x.calls[g+1]++
			}
			forEachVirt(in, func(r ir.Reg) { x.off[r.VirtIndex()+1]++ })
			g++
		}
	}
	for v := 0; v < nv; v++ {
		x.off[v+1] += x.off[v]
	}
	x.slab = scratch.Zeroed(x.slab, int(x.off[nv]))
	// Fill each list through its start offset, which then ends up at the
	// list's end (the next start); shift the offsets back afterwards.
	fill := x.off[:nv]
	g = 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			forEachVirt(in, func(r ir.Reg) {
				x.slab[fill[r.VirtIndex()]] = int32(g)
				fill[r.VirtIndex()]++
			})
			g++
		}
	}
	copy(x.off[1:], x.off[:nv])
	x.off[0] = 0
}

// forEachVirt calls fn once for each distinct virtual register among in's
// uses and defs.
func forEachVirt(in *ir.Instr, fn func(ir.Reg)) {
	for k, u := range in.Uses {
		if u.IsVirt() && !slices.Contains(in.Uses[:k], u) {
			fn(u)
		}
	}
	for k, d := range in.Defs {
		if d.IsVirt() && !slices.Contains(in.Uses, d) && !slices.Contains(in.Defs[:k], d) {
			fn(d)
		}
	}
}

// reset forgets the run's index and keeps the arrays.
func (x *siteIndex) reset() {
	x.built = false
	x.off, x.slab = x.off[:0], x.slab[:0]
	x.blockOf, x.first, x.calls = x.blockOf[:0], x.first[:0], x.calls[:0]
}

// sitesOf returns the global numbers of the instructions r occurs in, in
// layout order, building the index on the run's first call.
func (a *allocator) sitesOf(r ir.Reg) []int32 {
	if !a.sites.built {
		a.sites.build(a.f)
	}
	v := r.VirtIndex()
	return a.sites.slab[a.sites.off[v]:a.sites.off[v+1]]
}

// instrAt returns instruction g with its block and its index there.
func (a *allocator) instrAt(g int32) (*ir.Instr, *ir.Block, int) {
	bi := a.sites.blockOf[g]
	b := a.f.Blocks[bi]
	i := int(g - a.sites.first[bi])
	return b.Instrs[i], b, i
}

// callBetween reports whether a call lies strictly between instructions g0
// and g1, g0 < g1.
func (a *allocator) callBetween(g0, g1 int32) bool {
	return a.sites.calls[g1] != a.sites.calls[g0+1]
}
