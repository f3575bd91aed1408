package sched

import (
	"testing"

	"prescount/internal/ir"
	"prescount/internal/workload"
)

// benchCase is one scheduler benchmark input.
type benchCase struct {
	name string
	f    *ir.Func
}

// benchFuncs are the scheduler benchmark inputs: RandomSized kernels at
// three sizes and the DSA-OP idft kernel, whose 12.6k-instruction function
// is the largest the workload suites schedule.
func benchFuncs(b *testing.B) []benchCase {
	b.Helper()
	var idft *ir.Func
	for _, p := range workload.DSAOP().Programs {
		if p.Name != "idft" {
			continue
		}
		for _, f := range p.Funcs() {
			if idft == nil || f.NumInstrs() > idft.NumInstrs() {
				idft = f
			}
		}
	}
	if idft == nil {
		b.Fatal("no idft kernel in DSA-OP")
	}
	return []benchCase{
		{"small", workload.RandomSized(7, 64)},
		{"medium", workload.RandomSized(7, 512)},
		{"large", workload.RandomSized(7, 4096)},
		{"idft", idft},
	}
}

// BenchmarkSchedule measures Run on a fresh copy of each input (the copy
// is made off the clock). The reference variant times the original
// O(n × ready) selection loop on the same blocks, without rewriting them.
func BenchmarkSchedule(b *testing.B) {
	for _, c := range benchFuncs(b) {
		b.Run(c.name+"/heap", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				f := c.f.Clone()
				b.StartTimer()
				Run(f)
			}
		})
		b.Run(c.name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, blk := range c.f.Blocks {
					referenceOrder(c.f, blk)
				}
			}
		})
	}
}
