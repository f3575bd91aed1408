// Package pressure implements the bank pressure tracking mechanism of
// PresCount (paper §III-B): for every register bank it maintains the set of
// live intervals already committed to that bank and answers "what would the
// maximum live-range overlap in this bank become if I added this interval?"
// — the PresCountPrioritize ordering key of Algorithm 1.
//
// The tracker is backed by one profileTree per bank (see tree.go), so
// committing a segment costs O(log n) and the probe answers from cached
// subtree aggregates instead of replaying the bank's whole event list. The
// probe path performs no allocation; RankBanks reuses internal scratch.
// NaiveTracker (naive_test.go) keeps the original sorted-event-list
// implementation as the differential-testing and benchmarking reference; it
// is compiled into tests only.
//
// The package also exposes the overall register pressure ratio used for the
// THRES trade-off between spill risk and conflict cost.
package pressure

import (
	"sort"

	"prescount/internal/bankfile"
	"prescount/internal/liveness"
)

// Tracker tracks per-bank pressure over live intervals.
type Tracker struct {
	cfg bankfile.Config
	// trees holds the per-bank coverage profile.
	trees []profileTree
	// counts per bank: number of committed intervals.
	counts []int
	// scored is the RankBanks scratch buffer.
	scored []bankScore
}

type bankScore struct {
	bank     int
	pressure int
	count    int
}

// NewTracker returns a tracker for the given register-file configuration.
func NewTracker(cfg bankfile.Config) *Tracker {
	return &Tracker{
		cfg:    cfg,
		trees:  make([]profileTree, cfg.NumBanks),
		counts: make([]int, cfg.NumBanks),
	}
}

// Config returns the register file configuration the tracker serves.
func (t *Tracker) Config() bankfile.Config { return t.cfg }

// Add commits an interval to the given bank: one +1/-1 event pair per
// segment, O(log n) each.
func (t *Tracker) Add(bank int, iv *liveness.Interval) {
	tr := &t.trees[bank]
	for _, s := range iv.Segments {
		tr.ensure(s.End + 1)
		tr.update(s.Start, +1)
		tr.update(s.End, -1)
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
// probe, whichever is larger. Each segment costs two O(log n) tree queries
// and the path allocates nothing.
func (t *Tracker) PressureIfAdded(bank int, iv *liveness.Interval) int {
	tr := &t.trees[bank]
	if len(iv.Segments) == 0 {
		return tr.globalMax()
	}
	under := 0
	for _, s := range iv.Segments {
		if c := tr.maxCoverage(s.Start, s.End); c > under {
			under = c
		}
	}
	return maxInt(tr.globalMax(), under+1)
}

// RankBanks orders the candidate banks by ascending pressure-if-added for
// iv, breaking ties by current committed-interval count, then by bank index
// (deterministic). This is PresCountPrioritize of Algorithm 1: the front of
// the returned slice is the bank adding the least to the pressure count.
func (t *Tracker) RankBanks(candidates []int, iv *liveness.Interval) []int {
	return t.RankBanksInto(nil, candidates, iv)
}

// RankBanksInto is RankBanks appending into dst[:0]; the scoring scratch is
// reused across calls, so ranking allocates only when dst lacks capacity.
func (t *Tracker) RankBanksInto(dst []int, candidates []int, iv *liveness.Interval) []int {
	out := t.scored[:0]
	for _, b := range candidates {
		out = append(out, bankScore{b, t.PressureIfAdded(b, iv), t.counts[b]})
	}
	t.scored = out
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].pressure != out[j].pressure {
			return out[i].pressure < out[j].pressure
		}
		if out[i].count != out[j].count {
			return out[i].count < out[j].count
		}
		return out[i].bank < out[j].bank
	})
	dst = dst[:0]
	for _, s := range out {
		dst = append(dst, s.bank)
	}
	return dst
}

// BestBank returns RankBanks(candidates, iv)[0] without sorting or
// allocating: a single argmin scan under the same (pressure, count, bank)
// key. candidates must be non-empty.
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

// MinPressureBank returns the single best bank per RankBanks over all banks.
func (t *Tracker) MinPressureBank(iv *liveness.Interval) int {
	best, bestP, bestC := -1, 0, 0
	for b := 0; b < t.cfg.NumBanks; b++ {
		p := t.PressureIfAdded(b, iv)
		c := t.counts[b]
		if best < 0 || p < bestP || (p == bestP && c < bestC) {
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
