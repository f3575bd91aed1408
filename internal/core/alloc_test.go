package core

import (
	"fmt"
	"strings"
	"testing"

	"prescount/internal/bankfile"
	"prescount/internal/ir"
	"prescount/internal/scratch"
	"prescount/internal/workload"
)

// renderResult serializes every observable piece of one compile — allocated
// code, conflict report, allocator statistics, pre/post-pass stats — into a
// canonical string, mirroring renderModuleResult for single functions.
func renderResult(r *Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s", ir.Print(r.Func))
	fmt.Fprintf(&sb, "report: %+v\n", *r.Report)
	fmt.Fprintf(&sb, "alloc: %+v\n", *r.Alloc)
	fmt.Fprintf(&sb, "stats: %+v %+v %+v forced=%d %+v\n",
		r.Coalesce, r.SDG, r.Sched, r.BankAssignForced, r.Renumber)
	return sb.String()
}

// TestCompileArenaByteIdentity pins that the pooled scratch arenas and
// allocator pools never leak state between compiles: the same inputs
// compiled with pooling warm (after unrelated compiles of different sizes
// primed every pool) render byte-identically to compiles on fresh memory
// (scratch.SetDisabled, which the allocator pool honours too). A large
// spilling input goes first, so the small compiles after it reuse
// per-register tables and unions a larger function grew; the DSA file adds
// 1024 unions and subgroup bookkeeping. Runs under -race in CI, so
// cross-compile reuse of arena words is also checked for races.
func TestCompileArenaByteIdentity(t *testing.T) {
	inputs := []*ir.Func{
		workload.RandomSized(17, 4000),
		workload.RandomSized(7, 60),
		workload.RandomSized(11, 400),
		workload.RandomSized(13, 150),
	}
	if r, err := Compile(inputs[0], Options{File: bankfile.RV2(2), Method: MethodBRC}); err != nil || r.Alloc.SpilledVRegs == 0 {
		t.Fatalf("the large input must spill on RV#2 (err %v)", err)
	}
	for _, opts := range []Options{
		{File: bankfile.RV1(2), Method: MethodBPC},
		{File: bankfile.RV2(2), Method: MethodBRC},
		{File: bankfile.DSA(1024), Method: MethodBPC, Subgroups: true},
	} {
		compile := func(f *ir.Func) string {
			r, err := Compile(f, opts)
			if err != nil {
				t.Fatal(err)
			}
			return renderResult(r)
		}

		// Fresh-memory reference: every compile on its own arenas.
		scratch.SetDisabled(true)
		want := make([]string, len(inputs))
		for i, f := range inputs {
			want[i] = compile(f)
		}
		scratch.SetDisabled(false)

		// Pooled: interleave sizes so each compile inherits arenas and pooled
		// allocators grown (and dirtied) by a different function, twice over.
		for round := 0; round < 2; round++ {
			for i, f := range inputs {
				if got := compile(f); got != want[i] {
					t.Fatalf("method %v round %d input %d: pooled compile diverged from fresh-memory compile:\n--- fresh ---\n%.1500s\n--- pooled ---\n%.1500s",
						opts.Method, round, i, want[i], got)
				}
			}
		}
	}
}

// BenchmarkCompileSized measures steady-state compile cost of a mid-size
// function; run with -benchmem to watch allocs_per_compile.
func BenchmarkCompileSized(b *testing.B) {
	f := workload.RandomSized(0, 500)
	opts := Options{File: bankfile.RV1(2), Method: MethodBPC}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(f, opts); err != nil {
			b.Fatal(err)
		}
	}
}
