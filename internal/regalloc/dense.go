package regalloc

import (
	"prescount/internal/ir"
	"prescount/internal/scratch"
)

// vregTable is a per-register table indexed by VirtIndex: the dense form of
// the greedy allocator's per-register state (LLVM's greedy allocator keeps
// the same state in arrays indexed by virtual-register number). reset sizes
// it to a run's registers; entries past the end read as the zero value, and
// writes grow it, because spill pseudos and split children are created
// mid-run. release zeroes exactly the entries this run sized or grew, so a
// pooled table costs what this run used — never the size an earlier, larger
// function grew it to — and retains no pointer into a finished compile.
type vregTable[T any] struct{ v []T }

// reset sizes the table to n zeroed entries, reusing the backing array.
func (t *vregTable[T]) reset(n int) { t.v = scratch.Zeroed(t.v, n) }

// get returns r's entry, or the zero value if r is past the end.
func (t *vregTable[T]) get(r ir.Reg) T {
	if i := r.VirtIndex(); i < len(t.v) {
		return t.v[i]
	}
	var zero T
	return zero
}

// set stores r's entry, growing the table to cover r.
func (t *vregTable[T]) set(r ir.Reg, x T) {
	i := r.VirtIndex()
	if i >= len(t.v) {
		t.v = append(t.v, make([]T, i+1-len(t.v))...)
	}
	t.v[i] = x
}

// release zeroes the entries this run used and empties the table, keeping
// the backing array for the next run.
func (t *vregTable[T]) release() {
	clear(t.v)
	t.v = t.v[:0]
}
