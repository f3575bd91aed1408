package rcg

import (
	"testing"

	"prescount/internal/cfg"
	"prescount/internal/ir"
)

func build(t *testing.T, f *ir.Func) *Graph {
	t.Helper()
	return Build(f, cfg.Compute(f))
}

// fig5Func reconstructs the shape of the paper's Figure 5a: five
// conflict-relevant instructions A-E over registers b, c, d, e where some
// sit inside a hot loop, producing the annotated RCG of Figure 5b.
func fig5Func(t *testing.T) (*ir.Func, map[string]ir.Reg) {
	t.Helper()
	bd := ir.NewBuilder("fig5")
	base := bd.IConst(0)
	a := bd.FLoad(base, 0)
	b := bd.FLoad(base, 1)
	c := bd.FLoad(base, 2)
	d := bd.FLoad(base, 3)
	e := bd.FLoad(base, 4)
	// Hot loop: instructions touching b and c dominate the cost.
	bd.Loop(100, 1, func(ir.Reg) {
		t1 := bd.FAdd(b, c) // A: b-c conflict edge, hot
		t2 := bd.FMul(b, d) // B: b-d edge, hot
		s := bd.FAdd(t1, t2)
		bd.FStore(s, base, 5)
	})
	// Cold code: c-d, d-e edges.
	t3 := bd.FAdd(c, d) // C
	t4 := bd.FSub(d, e) // D
	t5 := bd.FAdd(a, t3)
	t6 := bd.FAdd(t4, t5) // E-ish combination
	bd.FStore(t6, base, 6)
	bd.Ret()
	return bd.Func(), map[string]ir.Reg{"a": a, "b": b, "c": c, "d": d, "e": e}
}

func TestRCGNodesAreConflictReads(t *testing.T) {
	f, regs := fig5Func(t)
	g := build(t, f)
	for _, name := range []string{"b", "c", "d", "e"} {
		found := false
		for _, n := range g.Nodes {
			if n == regs[name] {
				found = true
			}
		}
		if !found {
			t.Errorf("register %s missing from RCG", name)
		}
	}
}

func TestRCGEdgesFollowInstructions(t *testing.T) {
	f, regs := fig5Func(t)
	g := build(t, f)
	b, c, d, e := regs["b"], regs["c"], regs["d"], regs["e"]
	for _, pair := range [][2]ir.Reg{{b, c}, {b, d}, {c, d}, {d, e}} {
		if !g.HasEdge(pair[0], pair[1]) {
			t.Errorf("missing RCG edge %v-%v", pair[0], pair[1])
		}
	}
	if g.HasEdge(b, e) {
		t.Error("b and e never read together; no RCG edge expected")
	}
}

func TestCostModelWeighsLoops(t *testing.T) {
	f, regs := fig5Func(t)
	g := build(t, f)
	// b participates in two hot instructions (cost 100 each); e only in one
	// cold instruction (cost 1).
	if g.Cost(regs["b"]) < 100 {
		t.Errorf("Cost(b) = %g, want >= 100 (hot loop)", g.Cost(regs["b"]))
	}
	if g.Cost(regs["e"]) > 10 {
		t.Errorf("Cost(e) = %g, want small (cold)", g.Cost(regs["e"]))
	}
	if g.Cost(regs["b"]) <= g.Cost(regs["e"]) {
		t.Error("hot register must out-cost cold register")
	}
	// Edge weights: b-c edge is hot, d-e cold.
	if g.EdgeWeight(regs["b"], regs["c"]) <= g.EdgeWeight(regs["d"], regs["e"]) {
		t.Error("hot edge must outweigh cold edge")
	}
}

func TestCostEquation2Sums(t *testing.T) {
	// A register used by two conflict-relevant instructions at depth 0
	// has Cost_R = 1 + 1.
	bd := ir.NewBuilder("eq2")
	base := bd.IConst(0)
	x := bd.FLoad(base, 0)
	y := bd.FLoad(base, 1)
	z := bd.FLoad(base, 2)
	s1 := bd.FAdd(x, y)
	s2 := bd.FMul(x, z)
	s3 := bd.FAdd(s1, s2)
	bd.FStore(s3, base, 3)
	bd.Ret()
	f := bd.Func()
	g := build(t, f)
	if got := g.Cost(x); got != 2 {
		t.Errorf("Cost(x) = %g, want 2 (two cost-1 sites)", got)
	}
	if got := g.Cost(y); got != 1 {
		t.Errorf("Cost(y) = %g, want 1", got)
	}
	if len(g.Sites(x)) != 2 {
		t.Errorf("Sites(x) = %d, want 2", len(g.Sites(x)))
	}
}

func TestDuplicateOperandNoSelfEdge(t *testing.T) {
	bd := ir.NewBuilder("dup")
	base := bd.IConst(0)
	x := bd.FLoad(base, 0)
	sq := bd.FMul(x, x) // same register twice: no conflict possible
	bd.FStore(sq, base, 1)
	bd.Ret()
	g := build(t, bd.Func())
	if len(g.Nodes) != 0 {
		t.Errorf("x*x produced RCG nodes %v; a register cannot conflict with itself", g.Nodes)
	}
	if g.HasEdge(x, x) {
		t.Error("self edge created")
	}
}

func TestComponentsOrderedByCost(t *testing.T) {
	bd := ir.NewBuilder("comps")
	base := bd.IConst(0)
	// Cold component: u-v.
	u := bd.FLoad(base, 0)
	v := bd.FLoad(base, 1)
	s := bd.FAdd(u, v)
	bd.FStore(s, base, 2)
	// Hot component: p-q inside a loop.
	p := bd.FLoad(base, 3)
	q := bd.FLoad(base, 4)
	bd.Loop(50, 1, func(ir.Reg) {
		h := bd.FMul(p, q)
		bd.FStore(h, base, 5)
	})
	bd.Ret()
	f := bd.Func()
	g := build(t, f)
	comps := g.Components()
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	// Hot component (p,q) must come first.
	first := comps[0]
	foundP := false
	for _, r := range first {
		if r == p {
			foundP = true
		}
	}
	if !foundP {
		t.Errorf("hot component must be processed first; got %v", comps)
	}
}

func TestComponentsPartition(t *testing.T) {
	f, _ := fig5Func(t)
	g := build(t, f)
	seen := map[ir.Reg]bool{}
	total := 0
	for _, comp := range g.Components() {
		for _, r := range comp {
			if seen[r] {
				t.Errorf("register %v in two components", r)
			}
			seen[r] = true
			total++
		}
	}
	if total != len(g.Nodes) {
		t.Errorf("components cover %d nodes, graph has %d", total, len(g.Nodes))
	}
}

func TestPhysicalOperandsIgnored(t *testing.T) {
	src := `func @phys {
  entry:
    f0 = fconst 1
    %0:fp = fconst 2
    %1:fp = fadd f0, %0
    x1 = iconst 0
    fstore %1, x1, 0
    ret
}`
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g := build(t, f)
	// Only one virtual FP read in the fadd: no colorable pair, no node.
	if len(g.Nodes) != 0 {
		t.Errorf("RCG nodes = %v, want none (single virtual read)", g.Nodes)
	}
}

func TestHandshakeAndNeighborsSorted(t *testing.T) {
	f, _ := fig5Func(t)
	g := build(t, f)
	sum := 0
	for _, n := range g.Nodes {
		nb := g.Neighbors(n)
		sum += len(nb)
		for i := 1; i < len(nb); i++ {
			if nb[i-1] >= nb[i] {
				t.Errorf("neighbors of %v not sorted: %v", n, nb)
			}
		}
	}
	if sum != 2*g.NumEdges() {
		t.Errorf("handshake: %d != 2*%d", sum, g.NumEdges())
	}
}
