package pressure

import "math"

// profileTree is the per-bank pressure profile: an implicit segment tree
// over the slot-coordinate domain [0, cap). Leaf p holds the net event
// delta at coordinate p (+1 per committed segment starting there, -1 per
// committed segment ending there), so the prefix sum P(p) = Σ_{x≤p} leaf[x]
// is exactly the number of committed segments covering slot p (half-open
// [Start, End) semantics: the -1 at End sits at the first slot the segment
// no longer covers).
//
// Every node caches two aggregates of its leaf range, side by side:
//
//	sum  — the range's delta sum;
//	best — the maximum non-empty prefix sum within the range.
//
// best composes left-to-right (best = max(l.best, l.sum + r.best)), which
// makes the whole-profile maximum coverage — the paper's bank pressure
// count — available at the root in O(1), a segment commit O(log cap), and
// "maximum coverage over [s, e)" answerable by one bottom-up walk that also
// sums the prefix before s, O(log cap) and allocation-free. That turns the
// PressureIfAdded probe of Algorithm 1, which BestBank issues once per
// candidate bank, from a full event-list merge into a short loop.
//
// The tree is allocated once, on the bank's first Add, with a power-of-two
// leaf count covering every slot of the function ([0, slots], End
// included), and never grows. A coverage count is bounded by the
// function's vreg count, so int32 aggregates cannot overflow.
type profileTree struct {
	cap   int    // leaf count; a power of two, 0 until the first update
	nodes []node // 1-indexed heap layout, len 2*cap; leaves at [cap, 2*cap)
}

type node struct{ sum, best int32 }

// alloc sizes the tree to cover coordinates [0, slots].
func (t *profileTree) alloc(slots int) {
	c := 1
	for c <= slots {
		c *= 2
	}
	t.cap, t.nodes = c, make([]node, 2*c)
}

// addSegment commits the segment [s, e), s < e: +1 at leaf s, -1 at leaf
// e. The two root paths are refreshed side by side up to the leaves'
// common ancestor and once from there.
func (t *profileTree) addSegment(s, e int) {
	n := t.nodes
	i, j := t.cap+s, t.cap+e
	n[i].sum++
	n[i].best = n[i].sum
	n[j].sum--
	n[j].best = n[j].sum
	for i, j = i>>1, j>>1; i != j; i, j = i>>1, j>>1 {
		t.refresh(i)
		t.refresh(j)
	}
	for ; i >= 1; i >>= 1 {
		t.refresh(i)
	}
}

// refresh recomputes node i's aggregates from its children.
func (t *profileTree) refresh(i int) {
	l, r := t.nodes[2*i], t.nodes[2*i+1]
	t.nodes[i] = node{l.sum + r.sum, max(l.best, l.sum+r.best)}
}

// globalMax returns max_p P(p): the bank's current pressure count.
// Coverage is a count and hence never negative, so clamping at 0 matches
// the empty profile.
func (t *profileTree) globalMax() int {
	if t.cap == 0 {
		return 0
	}
	return max(int(t.nodes[1].best), 0)
}

// maxCoverage returns max_{p in [s, e)} P(p), the peak committed coverage
// under a probe segment. Requires s < e; coordinates at or beyond cap carry
// coverage equal to the total delta sum, which is 0 because every committed
// segment contributes a matched +1/-1 pair inside the domain.
//
// One bottom-up walk climbs from both ends of [s, e) at once: nodes taken
// on the left join the left accumulator after what it already holds, nodes
// taken on the right join the right accumulator before it, and the two meet
// in order at the end; the right side needs only its best. The same walk
// adds up P(s-1), the coverage the range starts from. Accumulators are int
// so the "no prefix yet" best cannot overflow when a sum is added to it.
func (t *profileTree) maxCoverage(s, e int) int {
	if t.cap == 0 || s >= t.cap {
		return 0
	}
	e = min(e, t.cap)
	n := t.nodes
	// x climbs leaf s's root path: the left sibling of every right child
	// on it lies wholly before s, so their sums add up to P(s-1).
	x, base := s+t.cap, 0
	lSum, lBest := 0, math.MinInt32
	rBest := math.MinInt32
	for lo, hi := x, e+t.cap; lo < hi; lo, hi, x = lo>>1, hi>>1, x>>1 {
		base += int(n[x-1].sum) & -(x & 1)
		if lo&1 == 1 {
			lBest = max(lBest, lSum+int(n[lo].best))
			lSum += int(n[lo].sum)
			lo++
		}
		if hi&1 == 1 {
			hi--
			rBest = max(int(n[hi].best), int(n[hi].sum)+rBest)
		}
	}
	for ; x > 1; x >>= 1 {
		base += int(n[x-1].sum) & -(x & 1)
	}
	return base + max(lBest, lSum+rBest)
}
