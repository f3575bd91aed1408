// Package pressure implements the bank pressure tracking mechanism of
// PresCount (paper §III-B): for every register bank it maintains the set of
// live intervals already committed to that bank and answers "what would the
// maximum live-range overlap in this bank become if I added this interval?"
// — the PresCountPrioritize ordering key of Algorithm 1.
//
// The tracker is backed by one profileTree per bank (see tree.go), sized
// once from the function's slot count on the bank's first Add, so
// committing a segment costs O(log n) and the probe answers from cached
// subtree aggregates instead of replaying the bank's whole event list.
// Probes (PressureIfAdded, BestBank) allocate nothing. NaiveTracker
// (naive_test.go) keeps the original sorted-event-list implementation as
// the differential-testing and benchmarking reference; it is compiled into
// tests only.
//
// The package also exposes the overall register pressure ratio used for the
// THRES trade-off between spill risk and conflict cost.
package pressure

import (
	"prescount/internal/bankfile"
	"prescount/internal/liveness"
)

// Tracker tracks per-bank pressure over live intervals.
type Tracker struct {
	// slots is the largest coordinate a committed segment may reach: the
	// End of the function's last live slot.
	slots int
	// trees holds the per-bank coverage profile.
	trees []profileTree
	// counts per bank: number of committed intervals.
	counts []int
}

// NewTracker returns a tracker for the given register-file configuration
// over a function whose intervals lie in [0, slots] (liveness.Info's
// NumSlots). A bank's tree is allocated on its first Add, once.
func NewTracker(cfg bankfile.Config, slots int) *Tracker {
	return &Tracker{
		slots:  slots,
		trees:  make([]profileTree, cfg.NumBanks),
		counts: make([]int, cfg.NumBanks),
	}
}

// Add commits an interval to the given bank: one +1/-1 event pair per
// segment, O(log n) each.
func (t *Tracker) Add(bank int, iv *liveness.Interval) {
	tr := &t.trees[bank]
	if tr.cap == 0 {
		tr.alloc(t.slots)
	}
	for _, s := range iv.Segments {
		tr.addSegment(s.Start, s.End)
	}
	t.counts[bank]++
}

// Count returns the number of intervals committed to the bank.
func (t *Tracker) Count(bank int) int { return t.counts[bank] }

// Pressure returns the current maximum overlap of intervals in the bank:
// the paper's "bank pressure count".
func (t *Tracker) Pressure(bank int) int { return t.trees[bank].globalMax() }

// PressureIfAdded returns what Pressure(bank) would become after adding iv,
// without committing it. An interval's segments are disjoint, so the probe
// raises coverage by exactly 1 under each of them: the answer is the
// committed pressure or one more than the peak committed coverage under the
// probe, whichever is larger. Each segment costs one O(log n) tree walk
// and the path allocates nothing.
func (t *Tracker) PressureIfAdded(bank int, iv *liveness.Interval) int {
	tr := &t.trees[bank]
	if len(iv.Segments) == 0 {
		return tr.globalMax()
	}
	under := 0
	for _, s := range iv.Segments {
		under = max(under, tr.maxCoverage(s.Start, s.End))
	}
	return max(tr.globalMax(), under+1)
}

// BestBank returns the candidate that Algorithm 1's PresCountPrioritize
// ranks first: the least pressure-if-added for iv, ties to the fewest
// committed intervals, then to the smaller bank — the minimum of the
// (pressure, count, bank) key, found by one scan that neither sorts nor
// allocates. candidates must be non-empty.
func (t *Tracker) BestBank(candidates []int, iv *liveness.Interval) int {
	best, bestP, bestC := -1, 0, 0
	for _, b := range candidates {
		p := t.PressureIfAdded(b, iv)
		c := t.counts[b]
		if best < 0 || p < bestP || (p == bestP && (c < bestC || (c == bestC && b < best))) {
			best, bestP, bestC = b, p, c
		}
	}
	return best
}

// OverallRegPressure returns the ratio of the function's maximum FP
// register pressure to the per-bank register capacity. Algorithm 1 compares
// this value against THRES: when the ratio is high, choosing banks by
// pressure (spill avoidance) beats choosing banks by neighbour conflict
// cost.
func OverallRegPressure(maxLive int, cfg bankfile.Config) float64 {
	if cfg.NumRegs == 0 {
		return 0
	}
	return float64(maxLive) / float64(cfg.RegsPerBank())
}
