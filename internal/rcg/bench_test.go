package rcg

import (
	"fmt"
	"sort"
	"testing"

	"prescount/internal/cfg"
	"prescount/internal/ir"
	"prescount/internal/workload"
)

// freshSortNeighbors replicates the pre-cache Neighbors: allocate and sort
// a fresh copy of the adjacency on every call. Kept only as the benchmark
// baseline.
func (g *Graph) freshSortNeighbors(r ir.Reg) []ir.Reg {
	nb := g.Neighbors(r)
	out := make([]ir.Reg, len(nb))
	copy(out, nb)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// componentsFreshSort is Components with the old per-call Neighbors, so the
// benchmark shows the before/after of the adjacency cache.
func (g *Graph) componentsFreshSort() [][]ir.Reg {
	seen := make(map[ir.Reg]bool, len(g.Nodes))
	var comps [][]ir.Reg
	for _, start := range g.Nodes {
		if seen[start] {
			continue
		}
		var comp []ir.Reg
		stack := []ir.Reg{start}
		seen[start] = true
		for len(stack) > 0 {
			r := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, r)
			for _, n := range g.freshSortNeighbors(r) {
				if !seen[n] {
					seen[n] = true
					stack = append(stack, n)
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	maxCost := func(comp []ir.Reg) float64 {
		m := 0.0
		for _, r := range comp {
			if g.Cost(r) > m {
				m = g.Cost(r)
			}
		}
		return m
	}
	sort.SliceStable(comps, func(i, j int) bool {
		ci, cj := maxCost(comps[i]), maxCost(comps[j])
		if ci != cj {
			return ci > cj
		}
		return comps[i][0] < comps[j][0]
	})
	return comps
}

func benchGraph(b testing.TB, size int) *Graph {
	b.Helper()
	f := workload.RandomSized(3, size)
	return Build(f, cfg.Compute(f))
}

// BenchmarkComponents measures the Components DFS with the cached sorted
// adjacency versus the old per-call alloc-and-sort Neighbors.
func BenchmarkComponents(b *testing.B) {
	for _, size := range []int{512, 4096} {
		g := benchGraph(b, size)
		b.Run(fmt.Sprintf("n=%d/cached", len(g.Nodes)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(g.Components()) == 0 {
					b.Fatal("no components")
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/fresh-sort", len(g.Nodes)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(g.componentsFreshSort()) == 0 {
					b.Fatal("no components")
				}
			}
		})
	}
}

// BenchmarkBuild measures RCG construction (with the scratch-buffer
// virtual-FP-use scan and the adjacency cache build).
func BenchmarkBuild(b *testing.B) {
	for _, size := range []int{512, 4096} {
		f := workload.RandomSized(3, size)
		cf := cfg.Compute(f)
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if g := Build(f, cf); len(g.Nodes) == 0 {
					b.Fatal("empty graph")
				}
			}
		})
	}
}

// TestComponentsMatchFreshSort pins that the cached adjacency produces the
// same components as the per-call sort it replaced.
func TestComponentsMatchFreshSort(t *testing.T) {
	g := benchGraph(t, 512)
	got := fmt.Sprint(g.Components())
	want := fmt.Sprint(g.componentsFreshSort())
	if got != want {
		t.Fatalf("components diverge:\n cached %s\n fresh  %s", got, want)
	}
}
