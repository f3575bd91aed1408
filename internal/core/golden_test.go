package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"prescount/internal/bankfile"
	"prescount/internal/compilecache"
	"prescount/internal/ir"
	"prescount/internal/workload"
)

// goldenWant pins the SHA-256 of every compile's printed output and
// statistics, per configuration. The digests were taken before the
// scheduler, SDG grouping and bpc candidate rewrites, so those rewrites
// (and any later refactor of the pipeline) must reproduce the old output
// byte for byte. The rv2/*/ls-*, binpack and coloring digests were taken
// before linear scan, coloring and binpacking moved onto one shared
// scratch-register frame. The text/* digests pin the MIR text path itself
// (Print, PrintModule, Fingerprint and the Parse round trip); they were taken
// before the single-pass parser and append-based formatter, and since
// fingerprints name disk-cache records and place kernels on the router's
// ring, they must never move. The other digests were retaken when the
// allocator's per-register placement map left the Result: they are the old
// tree's digests with only that map dropped from the hashed alloc line. A
// deliberate output change updates these digests from the failure
// message, and says why in its change description.
var goldenWant = map[string]string{
	"batch-cold/SPECfp":     "3103b12af0e7a9b8c7483969431f815c57291828d79afa8963a951a184e961d7",
	"batch-cold/CNN-KERNEL": "8357012f539da57c465a2efec7b1a2329cf2f4d81fa0da18d3f5b8fd7b1f77b1",
	"batch-cold/DSA-OP":     "365f1469c5bf7660dafdc4f26b5468372b1dd93e85850cdca2f1852923091d52",
	"rv2/2/non":             "21f36c5e3436ed1df5dff2c15efc33475208052eac0f63828f402cdb7a635ee7",
	"rv2/2/bcr":             "f14c5f33829afe145e8f2ce1783c952ed718d55052f15ba24b96eea3a91cdaed",
	"rv2/2/brc":             "4aaa722de524e4068bc3b35846c01915c6c0d6bdb01b6ce46518e7e73192b333",
	"rv2/2/bpc":             "a1469848935cc870b6307620cf6afc4a13c50f6105902a83d3dc433f79a3b27b",
	"rv2/4/non":             "d15338cf67f20075beb6c698772e8dbebe4e75e665fc0b3c051929b5094c0fc3",
	"rv2/4/bcr":             "81e591db9d28d6e28cec02dc057b647b4167a97a55efe8991cac726cfa6e93e6",
	"rv2/4/brc":             "4761b6df257b583932764a0af0d832c7485595bb1b7c29ecac3e7599f13d69fa",
	"rv2/4/bpc":             "5d59467a9dff09013c6fc604361343762ebe42c7b3a043e6c3fcf7174eb90665",
	"rv2/2/ls-non":          "28860ae24a5e1d4c854701fb550717cc140edaffccab314ab6caec1d2e739daf",
	"rv2/2/ls-bpc":          "25165fc1c4b7b6f408089391ae32f85072a294e5597fb27309cdb4b945abe74c",
	"rv2/2/binpack":         "99180befebf1ad6c1cc6f338bbf745722558afde50bfcfae2faebb87cfcd76a1",
	"rv2/2/coloring":        "3449473909dc27d4fcba6677c22163832c8be805f9bee0f08ae2033fd630764e",
	"rv2/4/ls-non":          "d78e8f786ebf3bdeb1f0e73af6fa40ed433dde6dfbc26bc0ae3b3848333f573d",
	"rv2/4/ls-bpc":          "4ff4115e28a298d0721cbcc35ced5effff637b058dddf962feb68355fca61e84",
	"rv2/4/binpack":         "27ad1e88c1bb1a053ceb1283145fa2a7bbaed31ef6db91d51d1dc8affcead989",
	"rv2/4/coloring":        "6d3469e3a4332d813d320b81f05b9fb4f0db16fc368692aa7800f8a3eb8a1862",
	"text/SPECfp":           "1ab32701ad50697bb9b862d3ab8a848c0b85205cb6389c3adb74d24894b1bfa4",
	"text/CNN-KERNEL":       "73cbbb1a7205a9cbda382688a5fa5040f3066ece1339881da28c9e1aec0bbf83",
	"text/DSA-OP":           "6bfa69b9f44f75e98c162bb76590467a60c775be429c66e002b181a99fc31e24",
	"text/random":           "0b8c607ad697368a63530b7e8e04b4136dd92fc3a5a69d829a7d6ac2fb63c971",
}

// goldenCase is one pinned configuration: a set of suites compiled
// uncached under one set of options.
type goldenCase struct {
	name   string
	suites []*workload.Suite
	opts   Options
}

func goldenCases() []goldenCase {
	spec, cnn, dsa := workload.SPECfp(), workload.CNN(), workload.DSAOP()
	// The benchmark's batch-cold configuration: bpc on RV#2 with 4 banks,
	// and the 1024-register 2x4 DSA file with subgroup splitting.
	cases := []goldenCase{
		{"batch-cold/SPECfp", []*workload.Suite{spec}, Options{File: bankfile.RV2(4), Method: MethodBPC}},
		{"batch-cold/CNN-KERNEL", []*workload.Suite{cnn}, Options{File: bankfile.RV2(4), Method: MethodBPC}},
		{"batch-cold/DSA-OP", []*workload.Suite{dsa}, Options{File: bankfile.DSA(1024), Method: MethodBPC, Subgroups: true}},
	}
	// Every cell of the paper's RV#2 sweep (experiments.RV2).
	for _, banks := range []int{2, 4} {
		for _, m := range []Method{MethodNon, MethodBCR, MethodBRC, MethodBPC} {
			cases = append(cases, goldenCase{
				fmt.Sprintf("rv2/%d/%s", banks, m),
				[]*workload.Suite{spec, cnn},
				Options{File: bankfile.RV2(banks), Method: m},
			})
		}
	}
	// The alternative allocators on the same RV#2 points, over all three
	// suites: linear scan under non and bpc, binpacking and coloring.
	alt := []struct {
		name string
		opts Options
	}{
		{"ls-non", Options{Method: MethodNon, LinearScan: true}},
		{"ls-bpc", Options{Method: MethodBPC, LinearScan: true}},
		{"binpack", Options{Method: MethodBinpack}},
		{"coloring", Options{Method: MethodColoring}},
	}
	for _, banks := range []int{2, 4} {
		for _, a := range alt {
			o := a.opts
			o.File = bankfile.RV2(banks)
			cases = append(cases, goldenCase{
				fmt.Sprintf("rv2/%d/%s", banks, a.name),
				[]*workload.Suite{spec, cnn, dsa},
				o,
			})
		}
	}
	return cases
}

// goldenDigest compiles every function of the case's suites and hashes the
// printed output with every deterministic field of the Result.
func goldenDigest(t *testing.T, c goldenCase) string {
	h := sha256.New()
	for _, s := range c.suites {
		for _, p := range s.Programs {
			for i, f := range p.Funcs() {
				res, err := Compile(f, c.opts)
				if err != nil {
					t.Fatalf("%s: %s/%s/%d: %v", c.name, s.Name, p.Name, i, err)
				}
				a := res.Alloc
				fmt.Fprintf(h, "%s/%s/%03d/%s\n%s", s.Name, p.Name, i, f.Name, ir.Print(res.Func))
				fmt.Fprintf(h, "report %+v\n", *res.Report)
				fmt.Fprintf(h, "passes %+v %+v %+v %d %+v\n",
					res.Coalesce, res.SDG, res.Sched, res.BankAssignForced, res.Renumber)
				fmt.Fprintf(h, "alloc %d %d %d %d %d %d %d %d %v\n%v\n",
					a.LoopSplits, a.SpilledVRegs, a.SpillStores, a.SpillReloads, a.Evictions,
					a.Remats, a.BankBreaks, a.Rescues, a.ColoringBailed, a.GroupDispl)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// textGoldenCases are the text-path digests: every function and module
// of each suite, and the serve-sweep shape (RandomSized at 120
// instructions, seeds 1-256) as bare functions.
func textGoldenCases() []textGoldenCase {
	suite := func(s *workload.Suite) func(t *testing.T) string {
		return func(t *testing.T) string { return textSuiteDigest(t, s) }
	}
	return []textGoldenCase{
		{"text/SPECfp", suite(workload.SPECfp())},
		{"text/CNN-KERNEL", suite(workload.CNN())},
		{"text/DSA-OP", suite(workload.DSAOP())},
		{"text/random", func(t *testing.T) string {
			h := sha256.New()
			for seed := int64(1); seed <= 256; seed++ {
				f := workload.RandomSized(seed, 120)
				writeTextFunc(t, h, fmt.Sprintf("random/%d", seed), f)
			}
			return hex.EncodeToString(h.Sum(nil))
		}},
	}
}

// textGoldenCase is one pinned text-path digest.
type textGoldenCase struct {
	name   string
	digest func(t *testing.T) string
}

// writeTextFunc hashes f's printed text and fingerprint, then the printed
// text and fingerprint of f parsed back from that text.
func writeTextFunc(t *testing.T, h io.Writer, key string, f *ir.Func) {
	text := ir.Print(f)
	fmt.Fprintf(h, "%s\n%s%x\n", key, text, f.Fingerprint())
	g, err := ir.Parse(text)
	if err != nil {
		t.Fatalf("%s: reparse: %v", key, err)
	}
	fmt.Fprintf(h, "reparsed\n%s%x\n", ir.Print(g), g.Fingerprint())
}

// textSuiteDigest hashes every function of the suite through writeTextFunc
// and every module's PrintModule text with the fingerprints ParseModule
// gives back for it.
func textSuiteDigest(t *testing.T, s *workload.Suite) string {
	h := sha256.New()
	for _, p := range s.Programs {
		for i, f := range p.Funcs() {
			writeTextFunc(t, h, fmt.Sprintf("%s/%s/%03d/%s", s.Name, p.Name, i, f.Name), f)
		}
		for i, m := range p.Modules {
			text := ir.PrintModule(m)
			fmt.Fprintf(h, "module %s/%s/%d\n%s", s.Name, p.Name, i, text)
			pm, err := ir.ParseModule(text)
			if err != nil {
				t.Fatalf("%s/%s module %d: reparse: %v", s.Name, p.Name, i, err)
			}
			for _, f := range pm.SortedFuncs() {
				fmt.Fprintf(h, "%s %x\n", f.Name, f.Fingerprint())
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenOutputs pins the pipeline's output bytes on the whole
// SPECfp, CNN-KERNEL and DSA-OP corpus: the benchmark's batch-cold
// configuration plus every RV#2 sweep cell, the alternative allocators at
// the same RV#2 points, and the text path's printed
// bytes and fingerprints on the same corpus.
func TestGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole corpus seventeen times")
	}
	for _, c := range goldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			if got, want := goldenDigest(t, c), goldenWant[c.name]; got != want {
				t.Errorf("output digest %s, want %s", got, want)
			}
		})
	}
	for _, c := range textGoldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			if got, want := c.digest(t), goldenWant[c.name]; got != want {
				t.Errorf("text digest %s, want %s", got, want)
			}
		})
	}
}

// portfolioGoldenWant pins the SHA-256 of every portfolio compile's
// printed output, conflict report and winning method on the benchtab -exp
// methods configuration (RV#2, 2 banks). The digests were taken before the
// auto selector and the module priors were deleted, and before the racer
// moved into core, so later refactors of the racer, the cache or the
// pipeline must reproduce the old portfolio output byte for byte.
var portfolioGoldenWant = map[string]string{
	"portfolio/SPECfp":     "17aa5bd73f77c5f82b623fc73e8324fa1d896685a1b703fad19c442c8124988e",
	"portfolio/CNN-KERNEL": "64c7b81a79481274686b46fa10a309c8c2f4380d89a4fa1a30f2b2d263fec179",
	"portfolio/DSA-OP":     "b86d8f11fee3ae341c7d2e8892a69a3020c143bc9f5e3806c7e288d7250a480b",
}

// portfolioGoldenDigest races every function of s and hashes the winner's
// printed output, its report and the winning method.
func portfolioGoldenDigest(t *testing.T, s *workload.Suite) string {
	h := sha256.New()
	for _, p := range s.Programs {
		for i, f := range p.Funcs() {
			// A fresh cache per function lets the candidates share the
			// method-independent prefix without retaining the corpus.
			opts := Options{File: bankfile.RV2(2), Method: MethodPortfolio, Cache: compilecache.New()}
			res, err := CompileContext(context.Background(), f, opts)
			if err != nil {
				t.Fatalf("%s/%s/%d: %v", s.Name, p.Name, i, err)
			}
			fmt.Fprintf(h, "%s/%s/%03d/%s winner %s\n%s", s.Name, p.Name, i, f.Name, res.Method, ir.Print(res.Func))
			fmt.Fprintf(h, "report %+v\n", *res.Report)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenPortfolioOutputs pins the portfolio's output bytes and race
// winners on the whole SPECfp, CNN-KERNEL and DSA-OP corpus.
func TestGoldenPortfolioOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("races every method on the whole corpus")
	}
	for _, s := range []*workload.Suite{workload.SPECfp(), workload.CNN(), workload.DSAOP()} {
		s := s
		name := "portfolio/" + s.Name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if got, want := portfolioGoldenDigest(t, s), portfolioGoldenWant[name]; got != want {
				t.Errorf("output digest %s, want %s", got, want)
			}
		})
	}
}
