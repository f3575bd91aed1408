package pressure

import (
	"sort"

	"prescount/internal/bankfile"
	"prescount/internal/liveness"
)

// NaiveTracker is the original event-list pressure tracker, kept as the
// reference implementation for the tree-backed Tracker: every bank holds a
// flat sorted slice of +1/-1 events, Add inserts with an O(n) slice shift,
// and each Pressure/PressureIfAdded probe replays the whole list. The
// differential tests assert that Tracker and NaiveTracker agree on every
// query; the microbenchmarks measure the gap between them.
type NaiveTracker struct {
	// events per bank: +1 at segment starts, -1 at ends.
	events [][]naiveEvent
	// counts per bank: number of committed intervals.
	counts []int
}

type naiveEvent struct {
	at    int
	delta int
}

// NewNaiveTracker returns a naive tracker for the given configuration.
func NewNaiveTracker(cfg bankfile.Config) *NaiveTracker {
	return &NaiveTracker{
		events: make([][]naiveEvent, cfg.NumBanks),
		counts: make([]int, cfg.NumBanks),
	}
}

// Add commits an interval to the given bank. The bank's event list is kept
// sorted incrementally: each segment contributes two events inserted at
// their sorted position.
func (t *NaiveTracker) Add(bank int, iv *liveness.Interval) {
	for _, s := range iv.Segments {
		t.insert(bank, naiveEvent{s.Start, +1})
		t.insert(bank, naiveEvent{s.End, -1})
	}
	t.counts[bank]++
}

func (t *NaiveTracker) insert(bank int, e naiveEvent) {
	evs := t.events[bank]
	i := sort.Search(len(evs), func(i int) bool {
		if evs[i].at != e.at {
			return evs[i].at > e.at
		}
		return evs[i].delta >= e.delta
	})
	evs = append(evs, naiveEvent{})
	copy(evs[i+1:], evs[i:])
	evs[i] = e
	t.events[bank] = evs
}

// Count returns the number of intervals committed to the bank.
func (t *NaiveTracker) Count(bank int) int { return t.counts[bank] }

// Pressure returns the current maximum overlap of intervals in the bank.
func (t *NaiveTracker) Pressure(bank int) int {
	cur, max := 0, 0
	for _, e := range t.events[bank] {
		cur += e.delta
		if cur > max {
			max = cur
		}
	}
	return max
}

// PressureIfAdded returns what Pressure(bank) would become after adding iv,
// without committing it. The bank's events are already sorted, and the
// probe's segments are sorted by construction, so a linear merge suffices.
func (t *NaiveTracker) PressureIfAdded(bank int, iv *liveness.Interval) int {
	extra := make([]naiveEvent, 0, 2*len(iv.Segments))
	for _, s := range iv.Segments {
		extra = append(extra, naiveEvent{s.Start, +1}, naiveEvent{s.End, -1})
	}
	sort.Slice(extra, func(i, j int) bool {
		if extra[i].at != extra[j].at {
			return extra[i].at < extra[j].at
		}
		return extra[i].delta < extra[j].delta
	})
	evs := t.events[bank]
	cur, max := 0, 0
	i, j := 0, 0
	for i < len(evs) || j < len(extra) {
		var e naiveEvent
		switch {
		case i >= len(evs):
			e = extra[j]
			j++
		case j >= len(extra):
			e = evs[i]
			i++
		case evs[i].at < extra[j].at ||
			(evs[i].at == extra[j].at && evs[i].delta <= extra[j].delta):
			e = evs[i]
			i++
		default:
			e = extra[j]
			j++
		}
		cur += e.delta
		if cur > max {
			max = cur
		}
	}
	return max
}

// RankBanks orders the candidate banks by ascending pressure-if-added,
// breaking ties by committed-interval count, then bank index: the full
// PresCountPrioritize ordering, whose head Tracker.BestBank must return.
func (t *NaiveTracker) RankBanks(candidates []int, iv *liveness.Interval) []int {
	type bankScore struct{ bank, pressure, count int }
	out := make([]bankScore, 0, len(candidates))
	for _, b := range candidates {
		out = append(out, bankScore{b, t.PressureIfAdded(b, iv), t.counts[b]})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].pressure != out[j].pressure {
			return out[i].pressure < out[j].pressure
		}
		if out[i].count != out[j].count {
			return out[i].count < out[j].count
		}
		return out[i].bank < out[j].bank
	})
	banks := make([]int, len(out))
	for i, s := range out {
		banks[i] = s.bank
	}
	return banks
}
