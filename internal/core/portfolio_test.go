package core

import (
	"context"
	"strings"
	"testing"

	"prescount/internal/bankfile"
	"prescount/internal/compilecache"
	"prescount/internal/ir"
	"prescount/internal/workload"
)

// corpusFuncs returns a deterministic cross-suite sample of workload
// functions: the functions of the first perSuite programs of every suite.
func corpusFuncs(t *testing.T, perSuite int) []*ir.Func {
	t.Helper()
	var out []*ir.Func
	for _, s := range []*workload.Suite{workload.SPECfp(), workload.CNN(), workload.DSAOP()} {
		for _, p := range s.Programs[:perSuite] {
			out = append(out, p.Funcs()...)
		}
	}
	if len(out) == 0 {
		t.Fatal("empty corpus")
	}
	return out
}

func raceOpts() Options {
	return Options{File: bankfile.RV2(2), Method: MethodPortfolio}
}

func TestRaceWinnerAndBytesDeterministic(t *testing.T) {
	funcs := corpusFuncs(t, 1)
	if len(funcs) > 12 {
		funcs = funcs[:12]
	}
	for _, f := range funcs {
		type run struct {
			winner Method
			bytes  string
		}
		var first *run
		for _, workers := range []int{1, 2, 4} {
			for rep := 0; rep < 2; rep++ {
				opts := raceOpts()
				opts.Cache = compilecache.New()
				res, err := race(context.Background(), f, opts, workers)
				if err != nil {
					t.Fatalf("%s: %v", f.Name, err)
				}
				got := run{res.Method, ir.Print(res.Func)}
				if first == nil {
					first = &got
					continue
				}
				if got.winner != first.winner {
					t.Fatalf("%s: workers=%d rep=%d: winner %v != %v", f.Name, workers, rep, got.winner, first.winner)
				}
				if got.bytes != first.bytes {
					t.Fatalf("%s: workers=%d rep=%d: output bytes differ", f.Name, workers, rep)
				}
			}
		}
	}
}

func TestRaceSharesPrefix(t *testing.T) {
	f := corpusFuncs(t, 1)[0]
	cache := compilecache.New()
	opts := raceOpts()
	opts.Cache = cache
	if _, err := CompileContext(context.Background(), f, opts); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	// One candidate computes the prefix; the others hit it (racers blocked
	// on the singleflight still count as hits once it lands).
	if st.PrefixMisses != 1 {
		t.Errorf("prefix computed %d times, want 1", st.PrefixMisses)
	}
	if st.PrefixHits < int64(len(portfolioMethods)-1) {
		t.Errorf("prefix hits = %d, want >= %d", st.PrefixHits, len(portfolioMethods)-1)
	}
}

func TestRaceZeroCostShortCircuit(t *testing.T) {
	// A function with a single FP operand chain has no same-instruction
	// conflict pairs, no spills, no copies: every method scores 0 and the
	// rank-0 method must win the tie regardless of scheduling.
	bd := ir.NewBuilder("tiny")
	base := bd.IConst(0)
	c := bd.FConst(1)
	bd.FStore(c, base, 0)
	x := bd.FLoad(base, 0)
	bd.FStore(x, base, 1)
	bd.Ret()
	f := bd.Func()
	for rep := 0; rep < 8; rep++ {
		res, err := CompileContext(context.Background(), f, raceOpts())
		if err != nil {
			t.Fatal(err)
		}
		if res.Method != portfolioMethods[0] {
			t.Fatalf("rep %d: zero-cost tie broken to %v, want rank 0 (%v)", rep, res.Method, portfolioMethods[0])
		}
	}
}

func TestRaceAllCandidatesFail(t *testing.T) {
	// f40 lies outside RV#2's 32-register file, so every candidate rejects
	// the input before any phase runs.
	f, err := ir.Parse(`func @outside {
 entry:
  x1 = iconst 0
  f40 = fconst 1.5
  fstore f40, x1, 0
  ret
}`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = CompileContext(context.Background(), f, raceOpts())
	if err == nil {
		t.Fatal("race succeeded on an input every candidate rejects")
	}
	for _, want := range []string{"portfolio: outside: every candidate failed", "outside the 32-register file"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestRaceCancellation(t *testing.T) {
	// A cancelled caller context aborts the race; raced under -race in CI
	// to exercise the candidate-cancellation paths.
	funcs := corpusFuncs(t, 1)
	for _, f := range funcs[:4] {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := race(ctx, f, raceOpts(), 0); err == nil {
			t.Fatalf("%s: race ignored a cancelled context", f.Name)
		}
	}
}

func TestCorpusVerifierCleanUnderNewMethods(t *testing.T) {
	// Every corpus function compiles verifier-clean (V001-V040) and
	// semantics-preserving under each portfolio allocator.
	funcs := corpusFuncs(t, 1)
	if testing.Short() {
		funcs = funcs[:6]
	}
	for _, method := range []Method{MethodBinpack, MethodColoring} {
		for _, f := range funcs {
			opts := Options{File: bankfile.RV2(2), Method: method, VerifyEach: true, VerifySemantics: true}
			if _, err := Compile(f, opts); err != nil {
				t.Errorf("%v/%s: %v", method, f.Name, err)
			}
		}
	}
}
