// Package scratch provides compile-scoped bump arenas for the pipeline's
// hot analyses. It generalizes the sync.Pool pattern regalloc's workQueue
// introduced: a worker acquires one Arena per compile (core.Compile does
// this; CompileModule, RunSweep and the prescountd worker loop inherit it
// through core), every liveness recompute inside that compile bump-allocates
// its bitset words from the arena, and at compile end the arena is reset —
// keeping its grown slab — and returned to a pool for the worker's next
// compile. Steady state, the per-compile allocation cost of all liveness
// sets is zero.
//
// Ownership rule: memory handed out by an Arena lives exactly as long as
// the compile that acquired it. Nothing reachable from a compile's returned
// Result, from a cached ir.Func, or from recorded verifier state may point
// into arena memory (DESIGN.md, "Memory layout & scratch lifetimes").
package scratch

import (
	"sync"
	"sync/atomic"
)

// Arena is a bump allocator over []uint64 slabs. Not safe for concurrent
// use: one compile (one goroutine) owns an arena at a time.
type Arena struct {
	// slabs holds every slab grown during this cycle; cur is the active one.
	slabs [][]uint64
	cur   []uint64
	off   int
	// used tracks the words handed out since the last Reset, so Reset can
	// consolidate multiple slabs into one right-sized slab.
	used int
}

// Words returns a zeroed []uint64 of length n, valid until the arena is
// reset or released.
func (a *Arena) Words(n int) []uint64 {
	if a.off+n > len(a.cur) {
		a.grow(n)
	}
	w := a.cur[a.off : a.off+n : a.off+n]
	a.off += n
	a.used += n
	for i := range w {
		w[i] = 0
	}
	return w
}

func (a *Arena) grow(n int) {
	size := 2 * len(a.cur)
	const minSlab = 1 << 12
	if size < minSlab {
		size = minSlab
	}
	if size < n {
		size = n
	}
	a.cur = make([]uint64, size)
	a.slabs = append(a.slabs, a.cur)
	a.off = 0
}

// Reset recycles the arena for the next compile. Previously returned
// slices become invalid. If the cycle spilled into several slabs they are
// consolidated into one slab covering the whole demand, so a steady-state
// compile of similar size never grows again.
func (a *Arena) Reset() {
	if len(a.slabs) > 1 {
		a.slabs = a.slabs[:0]
		a.cur = nil
		a.grow(a.used)
	}
	a.off = 0
	a.used = 0
}

var pool = sync.Pool{New: func() any { return new(Arena) }}

// disabled, when set, makes Get hand out unpooled arenas and Put drop
// them: every compile then runs on fresh memory. The byte-identity tests
// compare disabled vs enabled compiles to pin that arena reuse never leaks
// state between compiles.
var disabled atomic.Bool

// SetDisabled switches arena pooling off (true) or on (false). Test-only.
// Other pools of per-compile state (regalloc's allocator pool) read
// Disabled and bypass themselves too, so a disabled compile runs entirely
// on fresh memory.
func SetDisabled(v bool) { disabled.Store(v) }

// Disabled reports whether pooling is switched off (see SetDisabled).
func Disabled() bool { return disabled.Load() }

// Get returns an arena for one compile. Pair with Put.
func Get() *Arena {
	if disabled.Load() {
		return new(Arena)
	}
	return pool.Get().(*Arena)
}

// Put resets the arena and returns it to the pool. The caller must not
// retain any memory obtained from it.
func Put(a *Arena) {
	if disabled.Load() {
		return
	}
	a.Reset()
	pool.Put(a)
}

// Zeroed returns s with length n and every element zero, reusing the
// backing array when it is large enough: the reset of the pooled
// per-pass scratch slices.
func Zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
