package liveness_test

import (
	"fmt"
	"math/rand"
	"testing"

	"prescount/internal/ir"
	"prescount/internal/liveness"
)

// unionStream drives the tree union and a NaiveUnion through the same
// randomized insert/remove/replace stream of ops operations, with new
// owners numbered from 0, and asserts every HasConflict and ConflictsWith
// answer (including result order) matches.
func unionStream(t *testing.T, rng *rand.Rand, tree *liveness.Union, naive *liveness.NaiveUnion, ops int, label string) {
	t.Helper()
	mk := func() *liveness.Interval {
		iv := &liveness.Interval{}
		for j := 0; j < 1+rng.Intn(4); j++ {
			s := rng.Intn(4000)
			iv.Add(s, s+1+rng.Intn(300))
		}
		return iv
	}
	var owners []int
	nextOwner := 0
	for op := 0; op < ops; op++ {
		switch r := rng.Float64(); {
		case r < 0.45 || len(owners) == 0:
			iv := mk()
			tree.Insert(ir.VReg(nextOwner), iv)
			naive.Insert(ir.VReg(nextOwner), iv)
			owners = append(owners, nextOwner)
			nextOwner++
		case r < 0.55:
			// Replace an existing owner's interval (seq must survive).
			o := owners[rng.Intn(len(owners))]
			iv := mk()
			tree.Insert(ir.VReg(o), iv)
			naive.Insert(ir.VReg(o), iv)
		case r < 0.65:
			i := rng.Intn(len(owners))
			o := owners[i]
			tree.Remove(ir.VReg(o))
			naive.Remove(ir.VReg(o))
			owners = append(owners[:i], owners[i+1:]...)
		default:
			probe := mk()
			if got, want := tree.HasConflict(probe), naive.HasConflict(probe); got != want {
				t.Fatalf("%s op %d: HasConflict = %v, naive %v", label, op, got, want)
			}
			got := tree.ConflictsWith(probe)
			want := naive.ConflictsWith(probe)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s op %d: ConflictsWith = %v, naive %v", label, op, got, want)
			}
		}
		if tree.Len() != naive.Len() {
			t.Fatalf("%s op %d: Len = %d, naive %d", label, op, tree.Len(), naive.Len())
		}
	}
}

// TestUnionMatchesNaiveRandomized drives the treap-backed Union and the
// NaiveUnion through the same randomized insert/remove/replace stream —
// over 1000 member intervals live at peak — and asserts every answer
// matches. The union is then Reset and driven through a second, shorter
// stream whose owners come from a smaller index range, against a fresh
// NaiveUnion: a Reset that left owner records or index entries behind
// would surface there.
func TestUnionMatchesNaiveRandomized(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tree := liveness.NewUnion()
		unionStream(t, rng, tree, liveness.NewNaiveUnion(), 4000, fmt.Sprintf("seed %d", seed))
		tree.Reset()
		if tree.Len() != 0 {
			t.Fatalf("seed %d: Len after Reset = %d", seed, tree.Len())
		}
		unionStream(t, rng, tree, liveness.NewNaiveUnion(), 600, fmt.Sprintf("seed %d after Reset", seed))
	}
}

// TestUnionsSharingIndexMatchNaive runs the allocator's usage: a slab of
// zero-value unions sharing one OwnerIndex, with owners moving between
// them (each owner in at most one union at a time), compared union by
// union with NaiveUnions. After a Reset of every union a second round
// reuses smaller owner indexes.
func TestUnionsSharingIndexMatchNaive(t *testing.T) {
	const n = 4
	rng := rand.New(rand.NewSource(7))
	var idx liveness.OwnerIndex
	trees := make([]liveness.Union, n)
	for i := range trees {
		trees[i].UseIndex(&idx)
	}
	mk := func() *liveness.Interval {
		iv := &liveness.Interval{}
		for j := 0; j < 1+rng.Intn(3); j++ {
			s := rng.Intn(2000)
			iv.Add(s, s+1+rng.Intn(200))
		}
		return iv
	}
	for round, owners := range []int{800, 120} {
		naives := make([]*liveness.NaiveUnion, n)
		for i := range naives {
			naives[i] = liveness.NewNaiveUnion()
		}
		where := make([]int, owners) // 1 + union holding the owner
		for op := 0; op < 6*owners; op++ {
			o := rng.Intn(owners)
			r := ir.VReg(o)
			switch u := rng.Intn(n); {
			case where[o] != 0 && rng.Intn(3) == 0:
				trees[where[o]-1].Remove(r)
				naives[where[o]-1].Remove(r)
				where[o] = 0
			case where[o] == 0:
				iv := mk()
				trees[u].Insert(r, iv)
				naives[u].Insert(r, iv)
				where[o] = u + 1
			default:
				probe := mk()
				got := fmt.Sprint(trees[u].ConflictsWith(probe))
				if want := fmt.Sprint(naives[u].ConflictsWith(probe)); got != want {
					t.Fatalf("round %d op %d union %d: ConflictsWith = %s, naive %s", round, op, u, got, want)
				}
			}
			for i := range trees {
				if trees[i].Len() != naives[i].Len() {
					t.Fatalf("round %d op %d union %d: Len = %d, naive %d", round, op, i, trees[i].Len(), naives[i].Len())
				}
			}
		}
		for i := range trees {
			trees[i].Reset()
		}
	}
}

// TestUnionConflictsWithAppendReuse pins the scratch-buffer variant: the
// same backing array is reused and the results match ConflictsWith.
func TestUnionConflictsWithAppendReuse(t *testing.T) {
	u := liveness.NewUnion()
	for i := 0; i < 10; i++ {
		iv := &liveness.Interval{}
		iv.Add(i*10, i*10+15)
		u.Insert(ir.VReg(i), iv)
	}
	var buf []ir.Reg
	for s := 0; s < 80; s += 7 {
		probe := &liveness.Interval{}
		probe.Add(s, s+12)
		buf = u.ConflictsWithAppend(buf, probe)
		fresh := u.ConflictsWith(probe)
		if fmt.Sprint(buf) != fmt.Sprint(fresh) {
			t.Fatalf("probe [%d,%d): append %v, fresh %v", s, s+12, buf, fresh)
		}
	}
}
