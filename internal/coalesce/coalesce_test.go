package coalesce

import (
	"testing"

	"prescount/internal/analysis"
	"prescount/internal/ir"
	"prescount/internal/liveness"
)

func countCopies(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op.IsCopy() {
				n++
			}
		}
	}
	return n
}

func TestCoalescesDeadSourceCopy(t *testing.T) {
	// v = ...; w = fmov v; use w  — v dies at the copy: coalescible.
	bd := ir.NewBuilder("simple")
	base := bd.IConst(0)
	v := bd.FLoad(base, 0)
	w := bd.FMov(v)
	bd.FStore(w, base, 1)
	bd.Ret()
	f := bd.Func()
	st := Run(f)
	if st.Coalesced != 1 {
		t.Errorf("Coalesced = %d, want 1", st.Coalesced)
	}
	if got := countCopies(f); got != 0 {
		t.Errorf("copies remaining = %d, want 0", got)
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("Verify after coalescing: %v", err)
	}
	// The store must now use a register defined somewhere.
	store := f.Blocks[0].Instrs[len(f.Blocks[0].Instrs)-2]
	if store.Op != ir.OpFStore {
		t.Fatalf("expected fstore, got %v", store.Op)
	}
	defs := map[ir.Reg]bool{}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, d := range in.Defs {
				defs[d] = true
			}
		}
	}
	if !defs[store.Uses[0]] {
		t.Errorf("store source %v has no definition after rewrite", store.Uses[0])
	}
}

func TestKeepsInterferingCopy(t *testing.T) {
	// v stays live past the copy and both are used afterwards with
	// different values (v is redefined): must NOT coalesce.
	bd := ir.NewBuilder("interfere")
	base := bd.IConst(0)
	v := bd.FLoad(base, 0)
	w := bd.FMov(v)
	v2 := bd.FLoad(base, 1)
	bd.Assign(v, v2) // redefine v while w holds the old value
	s := bd.FAdd(v, w)
	bd.FStore(s, base, 2)
	bd.Ret()
	f := bd.Func()
	before := countCopies(f)
	Run(f)
	// The v<-v2 assign may coalesce (v2 dies), but the w<-v copy must stay.
	found := false
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpFMov {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("interfering copy was wrongly removed (before: %d copies)", before)
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// Semantics guard: v and w must remain distinct registers in the fadd.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpFAdd && in.Uses[0] == in.Uses[1] {
				t.Error("coalescing merged registers that interfere")
			}
		}
	}
}

func TestCopyChainCollapses(t *testing.T) {
	bd := ir.NewBuilder("chain")
	base := bd.IConst(0)
	a := bd.FLoad(base, 0)
	b := bd.FMov(a)
	c := bd.FMov(b)
	d := bd.FMov(c)
	bd.FStore(d, base, 1)
	bd.Ret()
	f := bd.Func()
	st := Run(f)
	if st.Coalesced != 3 {
		t.Errorf("Coalesced = %d, want 3", st.Coalesced)
	}
	if countCopies(f) != 0 {
		t.Errorf("chain left %d copies", countCopies(f))
	}
}

func TestGPRCopiesAlsoCoalesce(t *testing.T) {
	bd := ir.NewBuilder("gpr")
	x := bd.IConst(5)
	y := bd.IMov(x)
	z := bd.IAddI(y, 1)
	base := bd.IConst(0)
	v := bd.FConst(1)
	w := bd.FMA(v, v, v)
	bd.FStore(w, base, 0)
	_ = z
	bd.Ret()
	f := bd.Func()
	Run(f)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpIMov {
				t.Error("GPR copy not coalesced")
			}
		}
	}
}

func TestLoopCarriedCopyKept(t *testing.T) {
	// The accumulator update "acc = fmov next" inside a loop: acc is
	// live-in to the loop (live across the back edge), so acc and next
	// interfere through the loop — the copy must survive.
	bd := ir.NewBuilder("loopcopy")
	acc := bd.FConst(0)
	bd.Loop(10, 1, func(i ir.Reg) {
		one := bd.FConst(1)
		next := bd.FAdd(acc, one)
		bd.Assign(acc, next)
	})
	base := bd.IConst(0)
	bd.FStore(acc, base, 0)
	bd.Ret()
	f := bd.Func()
	Run(f)
	if err := f.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// The back-edge copy is coalescible here (the copy source dies at the
	// copy): acc and next merge into one register. Structurally, the
	// register feeding the final store must be (re)defined inside the loop
	// so the accumulation still happens.
	var storeSrc ir.Reg
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpFStore {
				storeSrc = in.Uses[0]
			}
		}
	}
	if storeSrc == ir.NoReg {
		t.Fatal("final store vanished")
	}
	wrote := false
	loop := f.Blocks[1]
	for _, in := range loop.Instrs {
		for _, d := range in.Defs {
			if d == storeSrc {
				wrote = true
			}
		}
	}
	if !wrote {
		t.Error("loop no longer writes the accumulation register observed by the store")
	}
	_ = acc
}

func TestIdempotentAfterFixpoint(t *testing.T) {
	bd := ir.NewBuilder("fix")
	base := bd.IConst(0)
	a := bd.FLoad(base, 0)
	b := bd.FMov(a)
	bd.FStore(b, base, 1)
	bd.Ret()
	f := bd.Func()
	Run(f)
	st := Run(f)
	if st.Coalesced != 0 {
		t.Errorf("second run coalesced %d, want 0", st.Coalesced)
	}
}

// livenessRuns coalesces f through RunCached and counts the liveness
// computations it made.
func livenessRuns(f *ir.Func) (int, Stats) {
	runs := 0
	liveness.TestHookCompute = func(*ir.Func) { runs++ }
	defer func() { liveness.TestHookCompute = nil }()
	st := RunCached(f, analysis.New(f))
	return runs, st
}

// TestLivenessOnlyForRoundsWithCopies checks that a round computes liveness
// only once it meets a virtual-to-virtual copy. A chain that collapses in
// round one leaves round two no copy, so only round one computes it; a
// copy kept after round one still costs round two its liveness; a function
// without copies computes none.
func TestLivenessOnlyForRoundsWithCopies(t *testing.T) {
	bd := ir.NewBuilder("chain")
	base := bd.IConst(0)
	v := bd.FLoad(base, 0)
	bd.FStore(bd.FMov(bd.FMov(v)), base, 1)
	bd.Ret()
	if runs, st := livenessRuns(bd.Func()); runs != 1 || st.Coalesced != 2 {
		t.Errorf("collapsing chain: %d liveness runs, %d coalesced; want 1 and 2", runs, st.Coalesced)
	}

	bd = ir.NewBuilder("kept")
	base = bd.IConst(0)
	v = bd.FLoad(base, 0)
	w := bd.FMov(v)
	bd.Assign(v, bd.FLoad(base, 1)) // coalesced in round one
	bd.FStore(bd.FAdd(v, w), base, 2)
	bd.Ret()
	f := bd.Func()
	runs, st := livenessRuns(f)
	if runs != 2 || st.Coalesced != 1 || countCopies(f) != 1 {
		t.Errorf("kept copy: %d liveness runs, %d coalesced, %d copies left; want 2, 1, 1",
			runs, st.Coalesced, countCopies(f))
	}

	bd = ir.NewBuilder("nocopy")
	base = bd.IConst(0)
	bd.FStore(bd.FLoad(base, 0), base, 1)
	bd.Ret()
	if runs, _ := livenessRuns(bd.Func()); runs != 0 {
		t.Errorf("copy-free function: %d liveness runs, want 0", runs)
	}
}
