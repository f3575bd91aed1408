package ir_test

import (
	"testing"

	"prescount/internal/ir"
	"prescount/internal/server"
	"prescount/internal/workload"
)

// TestDifferentialSuites holds Print, PrintModule, Fingerprint, Parse and
// ParseModule to the reference printer and parser on every function and
// module of the three suites and on the serve-sweep shape.
func TestDifferentialSuites(t *testing.T) {
	for _, s := range []*workload.Suite{workload.SPECfp(), workload.CNN(), workload.DSAOP()} {
		for _, p := range s.Programs {
			for _, f := range p.Funcs() {
				ir.SamePrint(t, f)
				ir.SameParse(t, ir.Print(f))
			}
			for _, m := range p.Modules {
				ir.SameParseModule(t, ir.PrintModule(m))
			}
		}
	}
	for seed := int64(1); seed <= 64; seed++ {
		f := workload.RandomSized(seed, 120)
		ir.SamePrint(t, f)
		ir.SameParse(t, ir.Print(f))
	}
}

// textSizes are the text-path benchmark inputs: RandomSized at the
// serve-sweep size and two larger ones.
var textSizes = []struct {
	name string
	size int
}{{"small", 120}, {"medium", 500}, {"large", 2000}}

// loadgenCorpus parses the loadgen replay corpus that serve-hot sends.
func loadgenCorpus(b *testing.B) (srcs []string, fs []*ir.Func) {
	srcs = server.Corpus(64)
	for _, src := range srcs {
		f, err := ir.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		fs = append(fs, f)
	}
	return srcs, fs
}

// BenchmarkParse parses one function per op; corpus cycles through the
// loadgen replay corpus.
func BenchmarkParse(b *testing.B) {
	bench := func(b *testing.B, srcs []string) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ir.Parse(srcs[i%len(srcs)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, s := range textSizes {
		src := ir.Print(workload.RandomSized(0, s.size))
		b.Run(s.name, func(b *testing.B) { bench(b, []string{src}) })
	}
	srcs, _ := loadgenCorpus(b)
	b.Run("corpus", func(b *testing.B) { bench(b, srcs) })
}

// BenchmarkPrint prints one function per op.
func BenchmarkPrint(b *testing.B) {
	bench := func(b *testing.B, fs []*ir.Func) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = ir.Print(fs[i%len(fs)])
		}
	}
	for _, s := range textSizes {
		f := workload.RandomSized(0, s.size)
		b.Run(s.name, func(b *testing.B) { bench(b, []*ir.Func{f}) })
	}
	_, fs := loadgenCorpus(b)
	b.Run("corpus", func(b *testing.B) { bench(b, fs) })
}

// BenchmarkFingerprint computes one fingerprint per op: MarkMutated
// drops the cached value first.
func BenchmarkFingerprint(b *testing.B) {
	bench := func(b *testing.B, fs []*ir.Func) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := fs[i%len(fs)]
			f.MarkMutated()
			_ = f.Fingerprint()
		}
	}
	for _, s := range textSizes {
		f := workload.RandomSized(0, s.size)
		b.Run(s.name, func(b *testing.B) { bench(b, []*ir.Func{f}) })
	}
	_, fs := loadgenCorpus(b)
	b.Run("corpus", func(b *testing.B) { bench(b, fs) })
}
