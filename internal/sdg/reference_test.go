package sdg

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"prescount/internal/ir"
	"prescount/internal/workload"
)

// referenceGraph is the SDG's original map-keyed form, kept as the
// differential oracle for the dense one: edge lists per register in maps,
// and Groups as a map-based union-find with a member sort and a per-root
// bucket map.
type referenceGraph struct {
	out, in map[ir.Reg][]ir.Reg
}

func referenceBuild(f *ir.Func) *referenceGraph {
	g := &referenceGraph{out: map[ir.Reg][]ir.Reg{}, in: map[ir.Reg][]ir.Reg{}}
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
				g.out[u] = append(g.out[u], d)
				g.in[d] = append(g.in[d], u)
			}
		}
	}
	return g
}

func (g *referenceGraph) groups() [][]ir.Reg {
	parent := map[ir.Reg]ir.Reg{}
	var find func(r ir.Reg) ir.Reg
	find = func(r ir.Reg) ir.Reg {
		p, ok := parent[r]
		if !ok {
			parent[r] = r
			return r
		}
		if p == r {
			return r
		}
		root := find(p)
		parent[r] = root
		return root
	}
	union := func(a, b ir.Reg) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for u, outs := range g.out {
		for _, d := range outs {
			union(u, d)
		}
	}
	byRoot := map[ir.Reg][]ir.Reg{}
	members := make([]ir.Reg, 0, len(parent))
	for r := range parent {
		members = append(members, r)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	var roots []ir.Reg
	for _, r := range members {
		root := find(r)
		if _, ok := byRoot[root]; !ok {
			roots = append(roots, root)
		}
		byRoot[root] = append(byRoot[root], r)
	}
	groups := make([][]ir.Reg, 0, len(roots))
	for _, root := range roots {
		groups = append(groups, byRoot[root])
	}
	sort.SliceStable(groups, func(i, j int) bool {
		if len(groups[i]) != len(groups[j]) {
			return len(groups[i]) > len(groups[j])
		}
		return groups[i][0] < groups[j][0]
	})
	return groups
}

// checkGraph compares the dense graph of f with the reference: groups in
// order, every register's degrees, and the sorted edge list.
func checkGraph(t *testing.T, name string, f *ir.Func) {
	t.Helper()
	g, ref := Build(f), referenceBuild(f)
	got, want := g.Groups(), ref.groups()
	if !slices.EqualFunc(got, want, slices.Equal[[]ir.Reg]) {
		t.Fatalf("%s: groups\n got %v\nwant %v", name, got, want)
	}
	// A second call reuses the union-find scratch and must agree.
	if again := g.Groups(); !slices.EqualFunc(again, want, slices.Equal[[]ir.Reg]) {
		t.Fatalf("%s: second Groups call differs", name)
	}
	var wantEdges []Edge
	for idx := range f.VRegs {
		r := ir.VReg(idx)
		if g.OutDegree(r) != len(ref.out[r]) || g.InDegree(r) != len(ref.in[r]) {
			t.Fatalf("%s: %v degrees out %d in %d, want %d %d", name, r,
				g.OutDegree(r), g.InDegree(r), len(ref.out[r]), len(ref.in[r]))
		}
		dsts := slices.Clone(ref.out[r])
		slices.Sort(dsts)
		for _, d := range dsts {
			wantEdges = append(wantEdges, Edge{r, d})
		}
	}
	if !slices.Equal(g.Edges(), wantEdges) {
		t.Fatalf("%s: sorted edges differ", name)
	}
}

// randomALU builds a function of FP vector ALU chains with the shapes that
// stress grouping: operands read twice (x*x), redefined accumulators,
// copies that separate groups, physical operands that join none, and
// registers allocated but never used.
func randomALU(rng *rand.Rand, size int) *ir.Func {
	f := ir.NewFunc(fmt.Sprintf("alu%d", size))
	base := f.NewVReg(ir.ClassGPR)
	var fps []ir.Reg
	fresh := func() ir.Reg {
		v := f.NewVReg(ir.ClassFP)
		if rng.Intn(5) == 0 {
			f.NewVReg(ir.ClassFP) // an index gap: never used
		}
		fps = append(fps, v)
		return v
	}
	b := f.NewBlock("entry")
	emit := func(in *ir.Instr) { b.Instrs = append(b.Instrs, in) }
	emit(&ir.Instr{Op: ir.OpIConst, Defs: []ir.Reg{base}})
	use := func() ir.Reg {
		if rng.Intn(10) == 0 {
			return ir.FReg(rng.Intn(4))
		}
		return fps[rng.Intn(len(fps))]
	}
	for i := 0; i < 4; i++ {
		emit(&ir.Instr{Op: ir.OpFLoad, Defs: []ir.Reg{fresh()}, Uses: []ir.Reg{base}, Imm: int64(i)})
	}
	ops := []ir.Op{ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv, ir.OpFMin, ir.OpFMax}
	for i := 0; i < size; i++ {
		var d ir.Reg
		switch r := rng.Intn(10); {
		case r < 2:
			d = fps[rng.Intn(len(fps))] // redefinition (accumulator)
		case r < 3:
			d = ir.FReg(rng.Intn(4))
		default:
			d = fresh()
		}
		x := use()
		switch r := rng.Intn(12); {
		case r < 1:
			emit(&ir.Instr{Op: ir.OpFMov, Defs: []ir.Reg{fresh()}, Uses: []ir.Reg{x}})
		case r < 2:
			emit(&ir.Instr{Op: ir.OpFLoad, Defs: []ir.Reg{fresh()}, Uses: []ir.Reg{base}, Imm: int64(rng.Intn(8))})
		case r < 3:
			emit(&ir.Instr{Op: ir.OpFNeg, Defs: []ir.Reg{d}, Uses: []ir.Reg{x}})
		case r < 5:
			emit(&ir.Instr{Op: ir.OpFMA, Defs: []ir.Reg{d}, Uses: []ir.Reg{x, use(), x}})
		case r < 6:
			emit(&ir.Instr{Op: ir.OpFMul, Defs: []ir.Reg{d}, Uses: []ir.Reg{x, x}})
		default:
			emit(&ir.Instr{Op: ops[rng.Intn(len(ops))], Defs: []ir.Reg{d}, Uses: []ir.Reg{x, use()}})
		}
	}
	emit(&ir.Instr{Op: ir.OpRet})
	return f
}

// TestGroupsMatchReference pits the dense union-find against the original
// map-based grouping on randomized ALU chains and workload kernels.
func TestGroupsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := randomALU(rng, []int{0, 5, 40, 300}[seed%4])
		if err := f.Verify(); err != nil {
			t.Fatalf("seed %d: generator produced invalid IR: %v", seed, err)
		}
		checkGraph(t, fmt.Sprintf("alu seed %d", seed), f)
	}
	for _, size := range []int{16, 200, 2000} {
		for seed := int64(1); seed <= 3; seed++ {
			checkGraph(t, fmt.Sprintf("random size %d seed %d", size, seed), workload.RandomSized(seed, size))
		}
	}
}

// TestSplitRoundsMatchReference checks the graphs Split actually sees: the
// DSA kernels before and after splitting at several group bounds, and the
// randomized chains after splitting.
func TestSplitRoundsMatchReference(t *testing.T) {
	for _, p := range workload.DSAOP().Programs {
		for _, f := range p.Funcs() {
			checkGraph(t, f.Name, f)
			for _, maxGroup := range []int{2, 8, 32} {
				g := f.Clone()
				Split(g, Options{MaxGroup: maxGroup})
				checkGraph(t, fmt.Sprintf("%s split %d", f.Name, maxGroup), g)
			}
		}
	}
	for seed := int64(1); seed <= 40; seed++ {
		f := randomALU(rand.New(rand.NewSource(seed)), 120)
		Split(f, Options{MaxGroup: 4})
		checkGraph(t, fmt.Sprintf("alu seed %d split", seed), f)
	}
}
