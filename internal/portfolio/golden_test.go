package portfolio

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"prescount/internal/bankfile"
	"prescount/internal/compilecache"
	"prescount/internal/core"
	"prescount/internal/ir"
	"prescount/internal/workload"
)

// goldenWant pins the SHA-256 of every portfolio compile's printed output,
// conflict report and winning method on the benchtab -exp methods
// configuration (RV#2, 2 banks, default racer). The digests were taken
// before the auto selector and the module priors were deleted, so later
// refactors of the racer, the cache or the pipeline must reproduce the old
// portfolio output byte for byte. The test lives here rather than beside
// core's TestGoldenOutputs because core's tests cannot import portfolio.
var goldenWant = map[string]string{
	"portfolio/SPECfp":     "17aa5bd73f77c5f82b623fc73e8324fa1d896685a1b703fad19c442c8124988e",
	"portfolio/CNN-KERNEL": "64c7b81a79481274686b46fa10a309c8c2f4380d89a4fa1a30f2b2d263fec179",
	"portfolio/DSA-OP":     "b86d8f11fee3ae341c7d2e8892a69a3020c143bc9f5e3806c7e288d7250a480b",
}

// goldenDigest races every function of s and hashes the winner's
// printed output, its report and the winning method.
func goldenDigest(t *testing.T, s *workload.Suite) string {
	h := sha256.New()
	for _, p := range s.Programs {
		for i, f := range p.Funcs() {
			// A fresh cache per function lets the candidates share the
			// method-independent prefix without retaining the corpus.
			opts := core.Options{File: bankfile.RV2(2), Cache: compilecache.New()}
			rr, err := CompileFunc(context.Background(), f, opts)
			if err != nil {
				t.Fatalf("%s/%s/%d: %v", s.Name, p.Name, i, err)
			}
			fmt.Fprintf(h, "%s/%s/%03d/%s winner %s\n%s", s.Name, p.Name, i, f.Name, rr.Winner, ir.Print(rr.Result.Func))
			fmt.Fprintf(h, "report %+v\n", *rr.Result.Report)
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
			if got, want := goldenDigest(t, s), goldenWant[name]; got != want {
				t.Errorf("output digest %s, want %s", got, want)
			}
		})
	}
}
