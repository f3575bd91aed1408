package rcg

import (
	"fmt"
	"slices"
	"testing"

	"prescount/internal/cfg"
	"prescount/internal/ir"
	"prescount/internal/workload"
)

// reference is the map-based RCG the dense Build replaced: Cost_R, site
// lists and edge weights accumulated through maps keyed by register, in
// block and instruction order.
type reference struct {
	cost  map[ir.Reg]float64
	sites map[ir.Reg][]*ir.Instr
	edgeW map[[2]ir.Reg]float64
}

func buildReference(f *ir.Func, cf *cfg.Info) reference {
	ref := reference{
		cost:  map[ir.Reg]float64{},
		sites: map[ir.Reg][]*ir.Instr{},
		edgeW: map[[2]ir.Reg]float64{},
	}
	for _, b := range f.Blocks {
		cost := cf.InstrCost(b)
		for _, in := range b.Instrs {
			uses := conflictUses(nil, in)
			if len(uses) < 2 {
				continue
			}
			for _, r := range uses {
				ref.cost[r] += cost
				ref.sites[r] = append(ref.sites[r], in)
			}
			for i := 0; i < len(uses); i++ {
				for j := i + 1; j < len(uses); j++ {
					a, b := min(uses[i], uses[j]), max(uses[i], uses[j])
					ref.edgeW[[2]ir.Reg{a, b}] += cost
				}
			}
		}
	}
	return ref
}

// TestDenseGraphMatchesReference pins the dense RCG to the map-based
// accumulation bit for bit: the node set, Cost_R, site lists, adjacency
// and every edge weight (float sums in the same order give equal bits).
func TestDenseGraphMatchesReference(t *testing.T) {
	var funcs []*ir.Func
	for _, size := range []int{64, 512, 3000} {
		funcs = append(funcs, workload.RandomSized(int64(size), size))
	}
	for _, s := range []*workload.Suite{workload.SPECfp(), workload.DSAOP()} {
		funcs = append(funcs, s.Programs[0].Funcs()...)
	}
	for _, f := range funcs {
		cf := cfg.Compute(f)
		g := Build(f, cf)
		ref := buildReference(f, cf)

		var nodes []ir.Reg
		for r := range ref.cost {
			nodes = append(nodes, r)
		}
		slices.Sort(nodes)
		if fmt.Sprint(g.Nodes) != fmt.Sprint(nodes) {
			t.Fatalf("%s: nodes %v, reference %v", f.Name, g.Nodes, nodes)
		}
		adj := map[ir.Reg][]ir.Reg{}
		for e, w := range ref.edgeW {
			if got := g.EdgeWeight(e[0], e[1]); got != w || g.EdgeWeight(e[1], e[0]) != w {
				t.Fatalf("%s: edge %v weight %v, reference %v", f.Name, e, got, w)
			}
			adj[e[0]] = append(adj[e[0]], e[1])
			adj[e[1]] = append(adj[e[1]], e[0])
		}
		if g.NumEdges() != len(ref.edgeW) {
			t.Fatalf("%s: %d edges, reference %d", f.Name, g.NumEdges(), len(ref.edgeW))
		}
		for _, r := range nodes {
			if g.Cost(r) != ref.cost[r] {
				t.Fatalf("%s: Cost(%v) = %v, reference %v", f.Name, r, g.Cost(r), ref.cost[r])
			}
			if !slices.Equal(g.Sites(r), ref.sites[r]) {
				t.Fatalf("%s: Sites(%v) differ from the reference", f.Name, r)
			}
			want := adj[r]
			slices.Sort(want)
			if !slices.Equal(g.Neighbors(r), want) {
				t.Fatalf("%s: Neighbors(%v) = %v, reference %v", f.Name, r, g.Neighbors(r), want)
			}
		}
	}
}
