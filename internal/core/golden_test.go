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
// ring, they must never move. A deliberate output change updates these
// digests from the failure message, and says why in its change description.
var goldenWant = map[string]string{
	"batch-cold/SPECfp":     "dee0f09ff38432d3607a01e8605544628419b917db0c802ccb4aa4dc905e3d72",
	"batch-cold/CNN-KERNEL": "427f0d897bd3abace216dfeabb566e51cfb3f03c0f72e8f15c09396959b9ccf1",
	"batch-cold/DSA-OP":     "53c078791383eee7b00cfbdbe5c991898e049209267435435c327e8243d69f64",
	"rv2/2/non":             "09f1049301caf69cf7879cb53f11be7f8a101bb2316ead1f0cb6041f342ba16f",
	"rv2/2/bcr":             "6b64ca31b20f9ce7c66668788ee81c8084b5dd37a9f513ebd5d5b91a8b067f04",
	"rv2/2/brc":             "3de89b4a5045613b60880eb55dc8da42e736f9b95fce1936f4551b9903d8b2e9",
	"rv2/2/bpc":             "05b42f7d651625ea5592c7d7860f5d4fd324454a257897ddfd63faa9fb55f958",
	"rv2/4/non":             "94ebc49549b19334ae8b74cf3668592fca8345523c5cf799fe113dcd9582b634",
	"rv2/4/bcr":             "01cc40e0d76625b1363c2cc8ba76da09cd56cf934f09d48f2f5801b9c655ff8b",
	"rv2/4/brc":             "e358950b35aa89d2998cd520059689607619d7fc96f8f128dbbb06bf895641f5",
	"rv2/4/bpc":             "a71b91b31514a1236bfe2102c5e1dd07f8bdc487697ea34d8d2e34ea18d0bcc7",
	"rv2/2/ls-non":          "82eb98c0c38df4be1b37ab8f35a4203fda1b8919b21f87e756497907bae2a515",
	"rv2/2/ls-bpc":          "6b2d377e894b20401b936a6166cb300c570d7b7bf849ab9ffb22a735d6b38cbb",
	"rv2/2/binpack":         "ad815bb11c30f03809ea909ed69446dcfb328d54a714241feb216a4dfdf43ee4",
	"rv2/2/coloring":        "f4fa2c536df188ed1466aa20ccc8e31cc426a7acc0df4fd4f1ffafecd17097e9",
	"rv2/4/ls-non":          "4d500e5b745a3e8161b1cdce0d7068a2ad84b61760145d5fb8b304b69f005f03",
	"rv2/4/ls-bpc":          "726996b5d3f82f5055df6edcb537cfe61fcc0cf304b942d03a57d3bd6e3f3121",
	"rv2/4/binpack":         "6699ec24bc8859332ad131c56b82bcf1dbd4276a74d880fe72815905d815520b",
	"rv2/4/coloring":        "619d638e95ddb673fd6da72990ee162c5751cda295b4a74a984c7257b666a030",
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
				fmt.Fprintf(h, "alloc %d %d %d %d %d %d %d %d %v\n%v\n%v\n",
					a.LoopSplits, a.SpilledVRegs, a.SpillStores, a.SpillReloads, a.Evictions,
					a.Remats, a.BankBreaks, a.Rescues, a.ColoringBailed, a.AssignedPhys, a.GroupDispl)
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
