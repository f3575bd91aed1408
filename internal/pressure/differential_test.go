package pressure_test

import (
	"math/rand"
	"testing"

	"prescount/internal/bankfile"
	"prescount/internal/liveness"
	"prescount/internal/pressure"
)

// randInterval builds a random interval with 1..maxSegs segments over
// [0, span).
func randInterval(rng *rand.Rand, maxSegs, span int) *liveness.Interval {
	iv := &liveness.Interval{}
	for j := 0; j < 1+rng.Intn(maxSegs); j++ {
		s := rng.Intn(span)
		iv.Add(s, s+1+rng.Intn(span/8+1))
	}
	return iv
}

// TestTrackerMatchesNaiveRandomized drives the tree-backed Tracker and the
// NaiveTracker through the same randomized workload — over 1000 committed
// intervals per seed — and asserts they agree on every Pressure,
// PressureIfAdded and Count query along the way, and that BestBank is the
// head of the naive ranking.
func TestTrackerMatchesNaiveRandomized(t *testing.T) {
	cfg := bankfile.RV1(4)
	allBanks := []int{0, 1, 2, 3}
	spans := []int{40, 400, 6000}
	// randInterval ends a segment at most span + span/8: the widest span's
	// bound is the slot count every tree is sized to.
	slots := spans[2] + spans[2]/8
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tree := pressure.NewTracker(cfg, slots)
		naive := pressure.NewNaiveTracker(cfg)
		for n := 0; n < 1100; n++ {
			// Vary the coordinate span so probes mix short ranges deep in
			// a tree sized for the widest span with dense stacking.
			span := spans[n%3]
			iv := randInterval(rng, 4, span)
			for _, b := range allBanks {
				if got, want := tree.PressureIfAdded(b, iv), naive.PressureIfAdded(b, iv); got != want {
					t.Fatalf("seed %d op %d: PressureIfAdded(%d, %v) = %d, naive %d", seed, n, b, iv, got, want)
				}
			}
			wantRank := naive.RankBanks(allBanks, iv)
			if got := tree.BestBank(allBanks, iv); got != wantRank[0] {
				t.Fatalf("seed %d op %d: BestBank = %d, RankBanks[0] = %d", seed, n, got, wantRank[0])
			}
			bank := rng.Intn(cfg.NumBanks)
			tree.Add(bank, iv)
			naive.Add(bank, iv)
			for _, b := range allBanks {
				if got, want := tree.Pressure(b), naive.Pressure(b); got != want {
					t.Fatalf("seed %d op %d: Pressure(%d) = %d, naive %d", seed, n, b, got, want)
				}
				if got, want := tree.Count(b), naive.Count(b); got != want {
					t.Fatalf("seed %d op %d: Count(%d) = %d, naive %d", seed, n, b, got, want)
				}
			}
		}
	}
}

// TestTrackerEmptyProbe pins the empty-interval probe semantics shared by
// both implementations: no segments means the committed pressure.
func TestTrackerEmptyProbe(t *testing.T) {
	cfg := bankfile.RV2(2)
	tree := pressure.NewTracker(cfg, 10)
	naive := pressure.NewNaiveTracker(cfg)
	iv := &liveness.Interval{}
	iv.Add(0, 10)
	tree.Add(0, iv)
	naive.Add(0, iv)
	empty := &liveness.Interval{}
	if got, want := tree.PressureIfAdded(0, empty), naive.PressureIfAdded(0, empty); got != want || got != 1 {
		t.Fatalf("empty probe: tree %d naive %d, want 1", got, want)
	}
}
