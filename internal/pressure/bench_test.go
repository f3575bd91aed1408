package pressure_test

import (
	"fmt"
	"testing"

	"prescount/internal/bankfile"
	"prescount/internal/cfg"
	"prescount/internal/ir"
	"prescount/internal/liveness"
	"prescount/internal/pressure"
	"prescount/internal/workload"
)

// benchIntervals computes the live FP intervals of a RandomSized function
// and its slot count: realistic segment shapes and slot coordinates for the
// probe benchmark.
func benchIntervals(b *testing.B, size int) (ivs []*liveness.Interval, slots int) {
	b.Helper()
	f := workload.RandomSized(7, size)
	lv := liveness.Compute(f, cfg.Compute(f))
	for idx, iv := range lv.Intervals {
		if iv == nil || iv.Empty() || f.VRegs[idx].Class != ir.ClassFP {
			continue
		}
		ivs = append(ivs, iv)
	}
	return ivs, lv.NumSlots()
}

// BenchmarkPressureProbe measures the Algorithm 1 inner loop at steady
// state: a tracker loaded with a function's worth of committed intervals
// answering PressureIfAdded probes across all banks (what BestBank issues
// once per candidate bank). The tree-backed Tracker answers each probe from
// cached subtree aggregates; the NaiveTracker replays the bank's whole
// event list.
func BenchmarkPressureProbe(b *testing.B) {
	file := bankfile.RV1(4)
	for _, size := range []int{64, 512, 4096} {
		ivs, slots := benchIntervals(b, size)
		b.Run(fmt.Sprintf("n=%d/tree", len(ivs)), func(b *testing.B) {
			tr := pressure.NewTracker(file, slots)
			for i, iv := range ivs {
				tr.Add(i%file.NumBanks, iv)
			}
			b.ReportAllocs()
			b.ResetTimer()
			sink := 0
			for i := 0; i < b.N; i++ {
				iv := ivs[i%len(ivs)]
				for bank := 0; bank < file.NumBanks; bank++ {
					sink += tr.PressureIfAdded(bank, iv)
				}
			}
			if sink < 0 {
				b.Fatal("impossible")
			}
		})
		b.Run(fmt.Sprintf("n=%d/naive", len(ivs)), func(b *testing.B) {
			tr := pressure.NewNaiveTracker(file)
			for i, iv := range ivs {
				tr.Add(i%file.NumBanks, iv)
			}
			b.ReportAllocs()
			b.ResetTimer()
			sink := 0
			for i := 0; i < b.N; i++ {
				iv := ivs[i%len(ivs)]
				for bank := 0; bank < file.NumBanks; bank++ {
					sink += tr.PressureIfAdded(bank, iv)
				}
			}
			if sink < 0 {
				b.Fatal("impossible")
			}
		})
	}
}

// BenchmarkPressureAdd measures interval commits: O(log n) tree updates
// versus the naive sorted-slice shift insert.
func BenchmarkPressureAdd(b *testing.B) {
	file := bankfile.RV1(4)
	for _, size := range []int{512, 4096} {
		ivs, slots := benchIntervals(b, size)
		b.Run(fmt.Sprintf("n=%d/tree", len(ivs)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr := pressure.NewTracker(file, slots)
				for j, iv := range ivs {
					tr.Add(j%file.NumBanks, iv)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/naive", len(ivs)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr := pressure.NewNaiveTracker(file)
				for j, iv := range ivs {
					tr.Add(j%file.NumBanks, iv)
				}
			}
		})
	}
}
