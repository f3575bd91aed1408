// Package liveness computes live intervals for virtual registers over a
// linearized slot-index space, in the style of LLVM's LiveIntervals: each
// instruction occupies two slots (a read slot and a write slot) so that an
// operand read and a result write of the same instruction do not interfere.
// The package also exposes register-pressure curves for the FP class, which
// feed both the bank-pressure heuristic and the THRES test of Algorithm 1.
package liveness

import (
	"fmt"
	"sort"
	"strings"
)

// SlotsPerInstr is the width of one instruction in slot-index space:
// slot 2k is the read point of instruction k, slot 2k+1 its write point.
const SlotsPerInstr = 2

// Segment is a half-open live range [Start, End) in slot-index space.
type Segment struct {
	Start, End int
}

// Overlaps reports whether the two segments intersect.
func (s Segment) Overlaps(o Segment) bool { return s.Start < o.End && o.Start < s.End }

// Interval is the live interval of one virtual register: a sorted,
// non-overlapping, coalesced list of segments plus a spill weight.
type Interval struct {
	// Segments in increasing order, disjoint and non-adjacent.
	Segments []Segment
	// Weight is the spill weight: total use/def frequency divided by size.
	Weight float64
	// NumUses counts use and def occurrences feeding Weight.
	NumUses int
}

// Add inserts the segment [start, end), merging with neighbours. The
// splice is done in place: inserts allocate only when the backing array is
// full, never for an intermediate one-element slice.
func (iv *Interval) Add(start, end int) {
	if start >= end {
		return
	}
	seg := Segment{start, end}
	i := sort.Search(len(iv.Segments), func(i int) bool {
		return iv.Segments[i].End >= seg.Start
	})
	j := i
	for j < len(iv.Segments) && iv.Segments[j].Start <= seg.End {
		if iv.Segments[j].Start < seg.Start {
			seg.Start = iv.Segments[j].Start
		}
		if iv.Segments[j].End > seg.End {
			seg.End = iv.Segments[j].End
		}
		j++
	}
	if i == j {
		// Pure insert: open one slot at i.
		iv.Segments = append(iv.Segments, Segment{})
		copy(iv.Segments[i+1:], iv.Segments[i:])
		iv.Segments[i] = seg
		return
	}
	// Merge: seg replaces [i, j); close the gap.
	iv.Segments[i] = seg
	iv.Segments = append(iv.Segments[:i+1], iv.Segments[j:]...)
}

// Start returns the first live slot (or 0 for an empty interval).
func (iv *Interval) Start() int {
	if len(iv.Segments) == 0 {
		return 0
	}
	return iv.Segments[0].Start
}

// End returns one past the last live slot.
func (iv *Interval) End() int {
	if len(iv.Segments) == 0 {
		return 0
	}
	return iv.Segments[len(iv.Segments)-1].End
}

// Size returns the covered slot count.
func (iv *Interval) Size() int {
	n := 0
	for _, s := range iv.Segments {
		n += s.End - s.Start
	}
	return n
}

// Empty reports whether the interval has no segments.
func (iv *Interval) Empty() bool { return len(iv.Segments) == 0 }

// Covers reports whether slot idx is inside the interval.
func (iv *Interval) Covers(idx int) bool {
	i := sort.Search(len(iv.Segments), func(i int) bool {
		return iv.Segments[i].End > idx
	})
	return i < len(iv.Segments) && iv.Segments[i].Start <= idx
}

// Overlaps reports whether the two intervals share any slot.
func (iv *Interval) Overlaps(other *Interval) bool {
	i, j := 0, 0
	for i < len(iv.Segments) && j < len(other.Segments) {
		a, b := iv.Segments[i], other.Segments[j]
		if a.Overlaps(b) {
			return true
		}
		if a.End <= b.End {
			i++
		} else {
			j++
		}
	}
	return false
}

// OverlapsSegment reports whether any segment intersects [start, end).
func (iv *Interval) OverlapsSegment(start, end int) bool {
	probe := Segment{start, end}
	i := sort.Search(len(iv.Segments), func(i int) bool {
		return iv.Segments[i].End > start
	})
	return i < len(iv.Segments) && iv.Segments[i].Overlaps(probe)
}

// String renders the interval as "[a,b) [c,d) w=W".
func (iv *Interval) String() string {
	var sb strings.Builder
	for i, s := range iv.Segments {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "[%d,%d)", s.Start, s.End)
	}
	fmt.Fprintf(&sb, " w=%.2f", iv.Weight)
	return sb.String()
}

// Union (union.go) is the interval-tree-backed overlap index occupying one
// physical register; NaiveUnion (union_naive_test.go) is its
// scan-all-members reference implementation, compiled into tests only.
