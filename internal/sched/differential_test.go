package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"prescount/internal/ir"
	"prescount/internal/workload"
)

// checkAgainstReference schedules f with Run and requires every block's
// order to equal referenceOrder's on an untouched copy, and the Reordered
// count to match.
func checkAgainstReference(t *testing.T, name string, f *ir.Func) {
	t.Helper()
	ref := f.Clone()
	want := make([][]int32, len(ref.Blocks))
	wantReordered := 0
	for bi, b := range ref.Blocks {
		order := referenceOrder(ref, b)
		if len(order) == len(b.Instrs)-1 && !slices.IsSorted(order) {
			want[bi] = order
			wantReordered++
		}
	}
	// Remember each instruction's original position to read Run's order
	// back off the rewritten blocks.
	pos := map[*ir.Instr]int32{}
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			pos[in] = int32(i)
		}
	}
	st := Run(f)
	for bi, b := range f.Blocks {
		got := make([]int32, 0, len(b.Instrs))
		for _, in := range b.Instrs[:len(b.Instrs)-1] {
			got = append(got, pos[in])
		}
		if want[bi] == nil {
			if !slices.IsSorted(got) {
				t.Fatalf("%s: block %s reordered to %v; reference keeps it", name, b.Name, got)
			}
			continue
		}
		if !slices.Equal(got, want[bi]) {
			t.Fatalf("%s: block %s order\n got %v\nwant %v", name, b.Name, got, want[bi])
		}
	}
	if st.Reordered != wantReordered {
		t.Fatalf("%s: Reordered = %d, reference %d", name, st.Reordered, wantReordered)
	}
}

// randomBlocks builds a function of nblocks straight-line blocks of up to
// size instructions each, mixing the hazards the scheduler must respect and
// the scoring corner cases: call barriers, aliasing and disjoint memory
// operations, spill-slot traffic, repeated operands (x*x, fma x,x,x),
// redefinitions of live virtual registers, and physical register operands.
// One block in four is load-heavy instead, like the DSA-OP kernels: mostly
// loads over one base, a few stores over it and spill-slot reads, which
// exercise the scheduler's separate read and write lists.
// Blocks share registers, so per-block state must not leak across blocks.
func randomBlocks(rng *rand.Rand, nblocks, size int) *ir.Func {
	f := ir.NewFunc(fmt.Sprintf("blocks%dx%d", nblocks, size))
	var fps, gprs []ir.Reg
	for i := 0; i < 4; i++ {
		fps = append(fps, f.NewVReg(ir.ClassFP))
		gprs = append(gprs, f.NewVReg(ir.ClassGPR))
	}
	pick := func(pool []ir.Reg) ir.Reg {
		// Recent values are likelier, so live ranges stay short enough for
		// the kill test to matter.
		if len(pool) > 8 && rng.Intn(4) != 0 {
			return pool[len(pool)-1-rng.Intn(8)]
		}
		return pool[rng.Intn(len(pool))]
	}
	fpUse := func() ir.Reg {
		if rng.Intn(12) == 0 {
			return ir.FReg(rng.Intn(4))
		}
		return pick(fps)
	}
	gprUse := func() ir.Reg {
		if rng.Intn(12) == 0 {
			return ir.XReg(1 + rng.Intn(3))
		}
		return pick(gprs)
	}
	def := func(c ir.Class) ir.Reg {
		switch r := rng.Intn(10); {
		case r == 0 && c == ir.ClassFP:
			return ir.FReg(rng.Intn(4))
		case r == 0:
			return ir.XReg(1 + rng.Intn(3))
		case r <= 3 && c == ir.ClassFP:
			return pick(fps) // redefinition
		case r <= 3:
			return pick(gprs)
		}
		v := f.NewVReg(c)
		if c == ir.ClassFP {
			fps = append(fps, v)
		} else {
			gprs = append(gprs, v)
		}
		return v
	}
	fpOps := []ir.Op{ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFMin, ir.OpFMax}
	for bi := 0; bi < nblocks; bi++ {
		b := f.NewBlock(fmt.Sprintf("b%d", bi))
		n := rng.Intn(size + 1)
		loadHeavy := rng.Intn(4) == 0
		for i := 0; i < n; i++ {
			var in *ir.Instr
			if loadHeavy {
				switch r := rng.Intn(20); {
				case r < 13:
					in = &ir.Instr{Op: ir.OpFLoad, Uses: []ir.Reg{gprs[0]}, Imm: int64(rng.Intn(6))}
					in.Defs = []ir.Reg{def(ir.ClassFP)}
				case r < 14:
					in = &ir.Instr{Op: ir.OpFStore, Uses: []ir.Reg{fpUse(), gprs[0]}, Imm: int64(rng.Intn(6))}
				case r < 16:
					in = &ir.Instr{Op: ir.OpFReload, Imm: int64(rng.Intn(2))}
					in.Defs = []ir.Reg{def(ir.ClassFP)}
				case r < 17:
					in = &ir.Instr{Op: ir.OpFSpill, Uses: []ir.Reg{fpUse()}, Imm: int64(rng.Intn(2))}
				default:
					in = &ir.Instr{Op: fpOps[rng.Intn(len(fpOps))], Uses: []ir.Reg{fpUse(), fpUse()}}
					in.Defs = []ir.Reg{def(ir.ClassFP)}
				}
				b.Instrs = append(b.Instrs, in)
				continue
			}
			switch r := rng.Intn(20); {
			case r < 6:
				x := fpUse()
				y := x // x*x
				if rng.Intn(4) != 0 {
					y = fpUse()
				}
				in = &ir.Instr{Op: fpOps[rng.Intn(len(fpOps))], Uses: []ir.Reg{x, y}}
				in.Defs = []ir.Reg{def(ir.ClassFP)}
			case r < 8:
				x := fpUse()
				in = &ir.Instr{Op: ir.OpFMA, Uses: []ir.Reg{x, fpUse(), x}}
				in.Defs = []ir.Reg{def(ir.ClassFP)}
			case r < 9:
				in = &ir.Instr{Op: ir.OpFNeg, Uses: []ir.Reg{fpUse()}}
				in.Defs = []ir.Reg{def(ir.ClassFP)}
			case r < 11:
				in = &ir.Instr{Op: ir.OpIAddI, Uses: []ir.Reg{gprUse()}, Imm: 1}
				in.Defs = []ir.Reg{def(ir.ClassGPR)}
			case r < 12:
				x := gprUse()
				in = &ir.Instr{Op: ir.OpIAdd, Uses: []ir.Reg{x, x}}
				in.Defs = []ir.Reg{def(ir.ClassGPR)}
			case r < 15:
				// Few bases and offsets: same-base pairs are disjoint or
				// exact aliases, cross-base pairs may alias.
				in = &ir.Instr{Op: ir.OpFLoad, Uses: []ir.Reg{gprs[rng.Intn(2)]}, Imm: int64(rng.Intn(3))}
				in.Defs = []ir.Reg{def(ir.ClassFP)}
			case r < 17:
				in = &ir.Instr{Op: ir.OpFStore, Uses: []ir.Reg{fpUse(), gprs[rng.Intn(2)]}, Imm: int64(rng.Intn(3))}
			case r < 18:
				in = &ir.Instr{Op: ir.OpFSpill, Uses: []ir.Reg{fpUse()}, Imm: int64(rng.Intn(2))}
			case r < 19:
				in = &ir.Instr{Op: ir.OpFReload, Imm: int64(rng.Intn(2))}
				in.Defs = []ir.Reg{def(ir.ClassFP)}
			default:
				in = &ir.Instr{Op: ir.OpCall}
			}
			b.Instrs = append(b.Instrs, in)
		}
		if bi > 0 {
			prev := f.Blocks[bi-1]
			prev.Instrs = append(prev.Instrs, &ir.Instr{Op: ir.OpBr})
			prev.Succs = []*ir.Block{b}
		}
	}
	last := f.Blocks[len(f.Blocks)-1]
	last.Instrs = append(last.Instrs, &ir.Instr{Op: ir.OpRet})
	f.RecomputePreds()
	return f
}

// TestHeapMatchesReferenceRandomBlocks pits the heap-driven scheduler
// against the original selection loop on randomized hazard-dense blocks.
func TestHeapMatchesReferenceRandomBlocks(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		size := []int{3, 8, 40, 200}[seed%4]
		f := randomBlocks(rng, 1+rng.Intn(4), size)
		if err := f.Verify(); err != nil {
			t.Fatalf("seed %d: generator produced invalid IR: %v", seed, err)
		}
		checkAgainstReference(t, fmt.Sprintf("seed %d", seed), f)
	}
}

// TestHeapMatchesReferenceRandomSized covers the workload generator's
// kernels, whose long straight-line prefixes and loop bodies are what the
// pipeline schedules, at several sizes and seeds.
func TestHeapMatchesReferenceRandomSized(t *testing.T) {
	for _, size := range []int{16, 120, 1000, 4000} {
		for seed := int64(1); seed <= 4; seed++ {
			checkAgainstReference(t, fmt.Sprintf("size %d seed %d", size, seed), workload.RandomSized(seed, size))
		}
	}
}

// TestScratchReuseAcrossFunctions schedules a large function and then a
// small one through the same pooled scratch: slot state left by the first
// (more registers, physical slots past its virtual range) must not leak
// into the second.
func TestScratchReuseAcrossFunctions(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		checkAgainstReference(t, "large", randomBlocks(rng, 3, 300))
		checkAgainstReference(t, "small", randomBlocks(rng, 2, 12))
	}
}
