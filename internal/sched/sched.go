// Package sched implements a pre-allocation list scheduler: within each
// basic block it reorders instructions (respecting data, memory and control
// dependences) to reduce peak register pressure, in the spirit of the
// pressure-aware pre-RA schedulers the paper cites as the inspiration for
// its bank pressure tracking. It is the second standard phase of the
// Figure 4 pipeline.
package sched

import (
	"sync"
	"sync/atomic"

	"prescount/internal/ir"
	"prescount/internal/scratch"
)

// Stats reports scheduling activity.
type Stats struct {
	// Reordered counts blocks whose instruction order changed.
	Reordered int
}

// Run schedules every block of f in place. Reordering preserves control
// flow, so callers holding an analysis cache may retain the CFG; liveness
// is invalidated through the function's mutation generation.
func Run(f *ir.Func) Stats {
	var st Stats
	sc := scratchPool.Get().(*blockScratch)
	sc.bind(f)
	for _, b := range f.Blocks {
		if scheduleBlock(f, b, sc) {
			st.Reordered++
		}
	}
	clear(sc.phys)
	scratchPool.Put(sc)
	if st.Reordered > 0 {
		f.MarkMutated()
	}
	return st
}

// blockScratch holds the working state of scheduleBlock, pooled across
// blocks and Run invocations so steady-state scheduling does not allocate.
// Everything here is indexes and counters — nothing retains IR pointers
// between blocks, so pooling is retention-safe.
type blockScratch struct {
	// succs[i] lists dependence successors of instruction i. Lists may hold
	// duplicate targets (one pair can be related by several hazards); indeg
	// counts every recorded edge, so increments and release decrements stay
	// consistent. A scheduled instruction's indeg is -1.
	succs [][]int32
	indeg []int32

	// Per-register state, dense over register slots (see slot). A slot is
	// (re)initialized on its first touch in a block — stamp records the
	// epoch of that touch — so a block costs O(its own operands) however
	// many registers the function has.
	stamp []uint32
	epoch uint32
	// lastDef is the register's most recent def in the block (-1: none).
	// useHead heads its chain of uses since that def (-1: none); the chain
	// nodes are useNext/useInstr, parallel arrays of per-use links.
	lastDef  []int32
	useHead  []int32
	useNext  []int32
	useInstr []int32
	// readers counts the unscheduled instructions that still read the
	// register; readerXor is the XOR of their indexes, so when the count
	// falls to one it names the single remaining reader.
	readers   []int32
	readerXor []int32
	// nv is the bound function's virtual register count: virtual register
	// i owns slot i, and physical registers get slots nv, nv+1, ... in
	// order of first appearance through phys.
	nv   int
	phys map[ir.Reg]int32

	// fp and gpr are each instruction's current score: net live growth of
	// its class if scheduled now. Scores only fall as readers retire.
	fp, gpr []int32
	// reads and writes list the block's memory reads and writes so far.
	// Two reads never alias, so a read is checked against earlier writes
	// only and a write against both.
	reads, writes []int32
	ready         readyHeap
	order         []int32
}

var scratchPool = sync.Pool{New: func() any {
	return &blockScratch{phys: map[ir.Reg]int32{}}
}}

// bind sizes the per-register state for f's virtual registers.
func (sc *blockScratch) bind(f *ir.Func) {
	sc.nv = len(f.VRegs)
	sc.growSlots(sc.nv)
}

// growSlots makes room for n register slots. New slots carry stamp 0,
// which no live epoch uses.
func (sc *blockScratch) growSlots(n int) {
	if n <= len(sc.stamp) {
		return
	}
	grow := n - len(sc.stamp)
	sc.stamp = append(sc.stamp, make([]uint32, grow)...)
	sc.lastDef = append(sc.lastDef, make([]int32, grow)...)
	sc.useHead = append(sc.useHead, make([]int32, grow)...)
	sc.readers = append(sc.readers, make([]int32, grow)...)
	sc.readerXor = append(sc.readerXor, make([]int32, grow)...)
}

// slot returns r's dense state index, initializing the state on the
// register's first touch in the current block.
func (sc *blockScratch) slot(r ir.Reg) int32 {
	var s int32
	if r.IsVirt() {
		s = int32(r.VirtIndex())
	} else {
		p, ok := sc.phys[r]
		if !ok {
			p = int32(sc.nv + len(sc.phys))
			sc.phys[r] = p
			sc.growSlots(int(p) + 1)
		}
		s = p
	}
	if sc.stamp[s] != sc.epoch {
		sc.stamp[s] = sc.epoch
		sc.lastDef[s], sc.useHead[s] = -1, -1
		sc.readers[s], sc.readerXor[s] = 0, 0
	}
	return s
}

// prepare resets the per-instruction state for a block body of n
// instructions and opens a new epoch for the per-register state.
func (sc *blockScratch) prepare(n int) {
	if cap(sc.succs) < n {
		sc.succs = make([][]int32, n)
	} else {
		sc.succs = sc.succs[:n]
	}
	for i := range sc.succs {
		sc.succs[i] = sc.succs[i][:0]
	}
	sc.indeg = scratch.Zeroed(sc.indeg, n)
	sc.fp = scratch.Zeroed(sc.fp, n)
	sc.gpr = scratch.Zeroed(sc.gpr, n)
	sc.useNext = sc.useNext[:0]
	sc.useInstr = sc.useInstr[:0]
	sc.reads = sc.reads[:0]
	sc.writes = sc.writes[:0]
	sc.ready = sc.ready[:0]
	sc.order = sc.order[:0]
	sc.epoch++
	if sc.epoch == 0 { // wrapped: no stamp may match a reused epoch
		clear(sc.stamp)
		sc.epoch = 1
	}
}

// firstUse reports whether operand k of uses is the first occurrence of its
// register, so per-register bookkeeping counts x*x once.
func firstUse(uses []ir.Reg, k int) bool {
	for _, u := range uses[:k] {
		if u == uses[k] {
			return false
		}
	}
	return true
}

// scheduleBlock performs a forward list scheduling of one block. It returns
// whether the order changed.
func scheduleBlock(f *ir.Func, b *ir.Block, sc *blockScratch) bool {
	n := len(b.Instrs)
	if n <= 2 {
		return false
	}
	body := b.Instrs[:n-1] // keep the terminator last
	term := b.Instrs[n-1]
	sc.prepare(len(body))

	// Build the dependence DAG. Edge lists may hold duplicates (one pair
	// can be related by several hazards at once); every duplicate counts on
	// both the indeg and the release side, so readiness is unchanged.
	addDep := func(from, to int) {
		if from != to {
			sc.succs[from] = append(sc.succs[from], int32(to))
			sc.indeg[to]++
		}
	}
	lastBarrier, checks := -1, 0
	for i, in := range body {
		// Calls are full scheduling barriers: they clobber caller-saved
		// registers, so no instruction may move across one.
		if in.Op == ir.OpCall {
			for j := lastBarrier + 1; j < i; j++ {
				addDep(j, i)
			}
			lastBarrier = i
		} else if lastBarrier >= 0 {
			addDep(lastBarrier, i)
		}
		for k, u := range in.Uses {
			s := sc.slot(u)
			if d := sc.lastDef[s]; d >= 0 {
				addDep(int(d), i) // RAW
			}
			sc.useNext = append(sc.useNext, sc.useHead[s])
			sc.useInstr = append(sc.useInstr, int32(i))
			sc.useHead[s] = int32(len(sc.useNext) - 1)
			if u.IsVirt() && firstUse(in.Uses, k) {
				sc.readers[s]++
				sc.readerXor[s] ^= int32(i)
			}
		}
		for _, d := range in.Defs {
			s := sc.slot(d)
			if pd := sc.lastDef[s]; pd >= 0 {
				addDep(int(pd), i) // WAW
			}
			for node := sc.useHead[s]; node >= 0; node = sc.useNext[node] {
				addDep(int(sc.useInstr[node]), i) // WAR
			}
			sc.useHead[s] = -1
			sc.lastDef[s] = int32(i)
			if d.IsVirt() {
				if f.RegClass(d) == ir.ClassFP {
					sc.fp[i]++
				} else {
					sc.gpr[i]++
				}
			}
		}
		if isMem(in.Op) {
			// A read checks the earlier writes, a write every earlier
			// operation. Each earlier operation sits in one list, so each
			// source gains this edge at most once, as from one scan.
			checks += len(sc.writes)
			for _, m := range sc.writes {
				if mayAlias(body[m], in) {
					addDep(int(m), i)
				}
			}
			if isRead(in.Op) {
				sc.reads = append(sc.reads, int32(i))
			} else {
				checks += len(sc.reads)
				for _, m := range sc.reads {
					if mayAlias(body[m], in) {
						addDep(int(m), i)
					}
				}
				sc.writes = append(sc.writes, int32(i))
			}
		}
	}
	aliasChecks.Add(int64(checks))

	// Greedy choice: among ready instructions pick the one minimizing net
	// FP live growth, then net GPR growth, then original order (stability).
	// A def opens a register; a use frees one when the instruction is the
	// only unscheduled one in the block still reading it. Seed the scores
	// with the uses that already have a single reader.
	kill := func(u ir.Reg, i int32) {
		if f.RegClass(u) == ir.ClassFP {
			sc.fp[i]--
		} else {
			sc.gpr[i]--
		}
	}
	for i, in := range body {
		for k, u := range in.Uses {
			if u.IsVirt() && firstUse(in.Uses, k) && sc.readers[sc.slot(u)] == 1 {
				kill(u, int32(i))
			}
		}
	}
	for i := range body {
		if sc.indeg[i] == 0 {
			sc.ready.push(int32(i), sc.fp[i], sc.gpr[i])
		}
	}
	// The (fp, gpr, index) key is a strict total order, so the heap's
	// minimum is exactly what a scan of the ready list would pick. Scores
	// only fall, so an instruction whose score dropped while ready is
	// pushed again with the lower key and its older entries go stale:
	// they are skipped when popped.
	order := sc.order
	for len(sc.ready) > 0 {
		c := sc.ready.pop()
		if sc.indeg[c.idx] != 0 || c.fp != sc.fp[c.idx] || c.gpr != sc.gpr[c.idx] {
			continue // stale
		}
		best := c.idx
		sc.indeg[best] = -1
		order = append(order, best)
		uses := body[best].Uses
		for k, u := range uses {
			if !u.IsVirt() || !firstUse(uses, k) {
				continue
			}
			s := sc.slot(u)
			sc.readers[s]--
			sc.readerXor[s] ^= best
			if sc.readers[s] == 1 {
				// One reader left: it now kills u.
				last := sc.readerXor[s]
				kill(u, last)
				if sc.indeg[last] == 0 {
					sc.ready.push(last, sc.fp[last], sc.gpr[last])
				}
			}
		}
		for _, s := range sc.succs[best] {
			sc.indeg[s]--
			if sc.indeg[s] == 0 {
				sc.ready.push(s, sc.fp[s], sc.gpr[s])
			}
		}
	}
	sc.order = order
	if len(order) != len(body) {
		// Cycle (cannot happen with a well-formed DAG); keep original.
		return false
	}
	changed := false
	for pos, idx := range order {
		if int(idx) != pos {
			changed = true
			break
		}
	}
	if !changed {
		return false
	}
	// The rewritten body escapes into b.Instrs: always fresh heap, never
	// scratch.
	newBody := make([]*ir.Instr, 0, n)
	for _, idx := range order {
		newBody = append(newBody, body[idx])
	}
	b.Instrs = append(newBody, term)
	return true
}

// readyEntry is one ready-heap entry: an instruction and its score when it
// was pushed.
type readyEntry struct{ idx, fp, gpr int32 }

// readyHeap is a binary min-heap of ready instructions keyed by
// (fp, gpr, idx).
type readyHeap []readyEntry

func (h readyHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	if a.fp != b.fp {
		return a.fp < b.fp
	}
	if a.gpr != b.gpr {
		return a.gpr < b.gpr
	}
	return a.idx < b.idx
}

func (h *readyHeap) push(idx, fp, gpr int32) {
	*h = append(*h, readyEntry{idx, fp, gpr})
	q := *h
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *readyHeap) pop() readyEntry {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q.less(j2, j) {
			j = j2
		}
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q
	return top
}

// MustPrecede reports whether an instruction pair (a textually before b in
// the same block) is ordered by a dependence the scheduler must preserve: a
// register RAW/WAW/WAR pair, a potentially aliasing memory pair, or a call
// barrier. Exported for the phase-boundary verifier (internal/verify),
// which audits scheduler output against the scheduler's own dependence
// rules.
func MustPrecede(a, b *ir.Instr) bool {
	if a.Op == ir.OpCall || b.Op == ir.OpCall {
		return true // calls are full scheduling barriers
	}
	for _, d := range a.Defs {
		for _, u := range b.Uses {
			if u == d {
				return true // RAW
			}
		}
		for _, d2 := range b.Defs {
			if d2 == d {
				return true // WAW
			}
		}
	}
	for _, u := range a.Uses {
		for _, d := range b.Defs {
			if d == u {
				return true // WAR
			}
		}
	}
	return isMem(a.Op) && isMem(b.Op) && mayAlias(a, b)
}

func isMem(op ir.Op) bool {
	switch op {
	case ir.OpFLoad, ir.OpFStore, ir.OpFSpill, ir.OpFReload:
		return true
	}
	return false
}

// isRead reports whether a memory operation only reads.
func isRead(op ir.Op) bool { return op == ir.OpFLoad || op == ir.OpFReload }

// aliasChecks counts mayAlias calls made while building dependence graphs,
// process-wide. Package tests read it as a difference.
var aliasChecks atomic.Int64

// mayAlias reports whether two memory operations might touch the same
// location and therefore must stay ordered. It applies three facts:
// two reads never conflict; spill slots live in a private area disjoint
// from program memory; accesses off the same base register with different
// offsets are disjoint.
func mayAlias(a, b *ir.Instr) bool {
	if isRead(a.Op) && isRead(b.Op) {
		return false
	}
	aSpill := a.Op == ir.OpFSpill || a.Op == ir.OpFReload
	bSpill := b.Op == ir.OpFSpill || b.Op == ir.OpFReload
	if aSpill != bSpill {
		return false
	}
	if aSpill && bSpill {
		return a.Imm == b.Imm
	}
	if base(a) == base(b) && base(a) != ir.NoReg {
		return a.Imm == b.Imm
	}
	return true
}

// base returns the address base register of a program memory access.
func base(in *ir.Instr) ir.Reg {
	switch in.Op {
	case ir.OpFLoad:
		return in.Uses[0]
	case ir.OpFStore:
		return in.Uses[1]
	}
	return ir.NoReg
}
