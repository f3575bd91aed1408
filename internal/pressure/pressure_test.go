package pressure

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"prescount/internal/bankfile"
	"prescount/internal/liveness"
)

func mkInterval(ranges ...[2]int) *liveness.Interval {
	iv := &liveness.Interval{}
	for _, r := range ranges {
		iv.Add(r[0], r[1])
	}
	return iv
}

func TestPressureBasic(t *testing.T) {
	tr := NewTracker(bankfile.RV2(2), 30)
	if tr.Pressure(0) != 0 || tr.Pressure(1) != 0 {
		t.Fatal("fresh tracker must have zero pressure")
	}
	tr.Add(0, mkInterval([2]int{0, 10}))
	tr.Add(0, mkInterval([2]int{5, 15}))
	tr.Add(0, mkInterval([2]int{20, 30}))
	if got := tr.Pressure(0); got != 2 {
		t.Errorf("Pressure(0) = %d, want 2", got)
	}
	if got := tr.Pressure(1); got != 0 {
		t.Errorf("Pressure(1) = %d, want 0", got)
	}
	if tr.Count(0) != 3 || tr.Count(1) != 0 {
		t.Errorf("counts = %d/%d, want 3/0", tr.Count(0), tr.Count(1))
	}
}

func TestPressureIfAddedDoesNotCommit(t *testing.T) {
	tr := NewTracker(bankfile.RV2(2), 20)
	tr.Add(0, mkInterval([2]int{0, 10}))
	iv := mkInterval([2]int{5, 8})
	if got := tr.PressureIfAdded(0, iv); got != 2 {
		t.Errorf("PressureIfAdded = %d, want 2", got)
	}
	if got := tr.Pressure(0); got != 1 {
		t.Errorf("Pressure after probe = %d, want 1 (probe must not commit)", got)
	}
	// Non-overlapping probe does not raise pressure.
	if got := tr.PressureIfAdded(0, mkInterval([2]int{10, 20})); got != 1 {
		t.Errorf("adjacent probe = %d, want 1", got)
	}
}

// TestRankBanksPrefersLowPressure checks the PresCountPrioritize order on a
// loaded file: the reference's full ranking, and the tracker's BestBank,
// which returns that ranking's head without building it.
func TestRankBanksPrefersLowPressure(t *testing.T) {
	cfg := bankfile.RV2(4)
	tr := NewTracker(cfg, 100)
	naive := NewNaiveTracker(cfg)
	// Load bank 0 heavily, bank 1 lightly at the probe point.
	for _, b := range []int{0, 0, 1} {
		tr.Add(b, mkInterval([2]int{0, 100}))
		naive.Add(b, mkInterval([2]int{0, 100}))
	}
	iv := mkInterval([2]int{10, 20})
	// The empty banks 2 and 3 tie and break by index; the most pressured
	// bank 0 comes last.
	if got, want := naive.RankBanks([]int{0, 1, 2, 3}, iv), []int{2, 3, 1, 0}; !slices.Equal(got, want) {
		t.Errorf("RankBanks = %v, want %v", got, want)
	}
	if got := tr.BestBank([]int{0, 1}, iv); got != 1 {
		t.Errorf("BestBank({0,1}) = %d, want the less pressured bank 1", got)
	}
	// The tie breaks by index whatever the candidate order.
	for _, cands := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}} {
		if got := tr.BestBank(cands, iv); got != 2 {
			t.Errorf("BestBank(%v) = %d, want empty bank 2", cands, got)
		}
	}
}

func TestBestBankTieBreakByCount(t *testing.T) {
	tr := NewTracker(bankfile.RV2(2), 25)
	// Equal max pressure, different counts: bank 1 has two disjoint
	// intervals (pressure 1), bank 0 has one.
	tr.Add(1, mkInterval([2]int{0, 5}))
	tr.Add(1, mkInterval([2]int{10, 15}))
	tr.Add(0, mkInterval([2]int{0, 5}))
	iv := mkInterval([2]int{20, 25})
	if got := tr.BestBank([]int{1, 0}, iv); got != 0 {
		t.Errorf("BestBank = %d, want bank 0 (fewer members)", got)
	}
}

// trackerSink keeps the trackers built under testing.AllocsPerRun on the
// heap, so every run counts the same allocations.
var trackerSink *Tracker

// TestTrackerAllocatesOncePerBank pins the tree's sizing: a bank's first
// Add allocates its whole tree, and no later Add allocates again, however
// far into the function it reaches. A tree grown on demand would allocate
// again at the late interval.
func TestTrackerAllocatesOncePerBank(t *testing.T) {
	const slots = 5000
	cfg := bankfile.RV1(4)
	early := mkInterval([2]int{0, 8}, [2]int{20, 30})
	late := mkInterval([2]int{slots - 8, slots})
	fresh := testing.AllocsPerRun(20, func() { trackerSink = NewTracker(cfg, slots) })
	for used := 1; used <= cfg.NumBanks; used++ {
		got := testing.AllocsPerRun(20, func() {
			tr := NewTracker(cfg, slots)
			for b := 0; b < used; b++ {
				tr.Add(b, early)
				tr.Add(b, late)
				tr.Add(b, early)
			}
			trackerSink = tr
		})
		if got-fresh != float64(used) {
			t.Errorf("%d banks used: %v allocations beyond the tracker's own, want %d (one tree each)", used, got-fresh, used)
		}
	}
	if got := trackerSink.Pressure(0); got != 2 {
		t.Errorf("Pressure(0) = %d, want 2", got)
	}
}

// TestMinPressureBank: the least pressured bank of the whole file is
// BestBank over every bank; the tracker keeps no separate query for it.
func TestMinPressureBank(t *testing.T) {
	all := []int{0, 1}
	for loaded, want := range []int{1, 0} {
		tr := NewTracker(bankfile.RV2(2), 50)
		tr.Add(loaded, mkInterval([2]int{0, 50}))
		if got := tr.BestBank(all, mkInterval([2]int{0, 10})); got != want {
			t.Errorf("bank %d loaded: BestBank over every bank = %d, want %d", loaded, got, want)
		}
	}
}

func TestOverallRegPressure(t *testing.T) {
	cfg := bankfile.RV2(2) // 32 regs, 16 per bank
	if got := OverallRegPressure(8, cfg); got != 0.5 {
		t.Errorf("OverallRegPressure(8) = %g, want 0.5", got)
	}
	if got := OverallRegPressure(32, cfg); got != 2.0 {
		t.Errorf("OverallRegPressure(32) = %g, want 2.0", got)
	}
}

// quick-check: Pressure equals liveness.MaxOverlap over the committed
// intervals, and PressureIfAdded equals Pressure after a real Add.
func TestTrackerAgreesWithMaxOverlapQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTracker(bankfile.RV2(2), 95)
		var committed []*liveness.Interval
		for k := 0; k < 10; k++ {
			iv := &liveness.Interval{}
			for j := 0; j < 1+rng.Intn(3); j++ {
				s := rng.Intn(80)
				iv.Add(s, s+1+rng.Intn(15))
			}
			probe := tr.PressureIfAdded(0, iv)
			tr.Add(0, iv)
			committed = append(committed, iv)
			if tr.Pressure(0) != probe {
				return false
			}
			if tr.Pressure(0) != liveness.MaxOverlap(committed) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBalancedFillingViaRank(t *testing.T) {
	// Repeatedly adding identical overlapping intervals to the bank ranked
	// first must distribute them evenly over all banks.
	tr := NewTracker(bankfile.RV1(4), 100)
	allBanks := []int{0, 1, 2, 3}
	for i := 0; i < 20; i++ {
		iv := mkInterval([2]int{0, 100})
		b := tr.BestBank(allBanks, iv)
		tr.Add(b, iv)
	}
	for b := 0; b < 4; b++ {
		if got := tr.Pressure(b); got != 5 {
			t.Errorf("bank %d pressure = %d, want 5 (even split)", b, got)
		}
	}
}
