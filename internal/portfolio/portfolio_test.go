package portfolio

import (
	"context"
	"fmt"
	"testing"

	"prescount/internal/bankfile"
	"prescount/internal/compilecache"
	"prescount/internal/core"
	"prescount/internal/ir"
	"prescount/internal/workload"
)

// corpusFuncs returns a deterministic cross-suite sample of workload
// functions: the first program of every category of every suite.
func corpusFuncs(t *testing.T, perSuite int) []*ir.Func {
	t.Helper()
	var out []*ir.Func
	for _, s := range []*workload.Suite{workload.SPECfp(), workload.CNN(), workload.DSAOP()} {
		n := 0
		for _, p := range s.Programs {
			for _, f := range p.Funcs() {
				out = append(out, f)
			}
			n++
			if n >= perSuite {
				break
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("empty corpus")
	}
	return out
}

func baseOpts() core.Options {
	return core.Options{File: bankfile.RV2(2), Method: core.MethodBPC}
}

func TestRaceWinnerAndBytesDeterministic(t *testing.T) {
	funcs := corpusFuncs(t, 1)
	if len(funcs) > 12 {
		funcs = funcs[:12]
	}
	for _, f := range funcs {
		type run struct {
			winner core.Method
			bytes  string
		}
		var first *run
		for _, workers := range []int{1, 2, 4} {
			for rep := 0; rep < 2; rep++ {
				cache := compilecache.New()
				opts := baseOpts()
				opts.Cache = cache
				rr, err := Race(context.Background(), f, opts, DefaultMethods(), DefaultStaticCost(), workers)
				if err != nil {
					t.Fatalf("%s: %v", f.Name, err)
				}
				got := run{rr.Winner, ir.Print(rr.Result.Func)}
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
	opts := baseOpts()
	opts.Cache = cache
	if _, err := Race(context.Background(), f, opts, DefaultMethods(), DefaultStaticCost(), 0); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	// One candidate computes the prefix; the others hit it (racers blocked
	// on the singleflight still count as hits once it lands).
	if st.PrefixMisses != 1 {
		t.Errorf("prefix computed %d times, want 1", st.PrefixMisses)
	}
	if st.PrefixHits < int64(len(DefaultMethods())-1) {
		t.Errorf("prefix hits = %d, want >= %d", st.PrefixHits, len(DefaultMethods())-1)
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
		rr, err := Race(context.Background(), f, baseOpts(), DefaultMethods(), DefaultStaticCost(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if rr.Winner != DefaultMethods()[0] {
			t.Fatalf("rep %d: zero-cost tie broken to %v, want rank 0 (%v)", rep, rr.Winner, DefaultMethods()[0])
		}
	}
}

type failingCost struct{}

func (failingCost) Name() string                        { return "failing" }
func (failingCost) Score(*core.Result) (float64, error) { return 0, fmt.Errorf("boom") }

func TestRaceAllCandidatesFail(t *testing.T) {
	f := corpusFuncs(t, 1)[0]
	_, err := Race(context.Background(), f, baseOpts(), DefaultMethods(), failingCost{}, 0)
	if err == nil {
		t.Fatal("race succeeded with a cost model that always fails")
	}
}

func TestRaceCancellation(t *testing.T) {
	// A cancelled caller context aborts the race; raced under -race in CI
	// to exercise the candidate-cancellation paths.
	funcs := corpusFuncs(t, 1)
	for _, f := range funcs[:4] {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := Race(ctx, f, baseOpts(), DefaultMethods(), DefaultStaticCost(), 0); err == nil {
			t.Fatalf("%s: race ignored a cancelled context", f.Name)
		}
	}
}

func TestCorpusVerifierCleanUnderNewMethods(t *testing.T) {
	// Satellite: every corpus function compiles verifier-clean (V001-V040)
	// and semantics-preserving under each new allocator.
	funcs := corpusFuncs(t, 1)
	if testing.Short() {
		funcs = funcs[:6]
	}
	for _, method := range []core.Method{core.MethodBinpack, core.MethodColoring} {
		for _, f := range funcs {
			opts := baseOpts()
			opts.Method = method
			opts.VerifyEach = true
			opts.VerifySemantics = true
			if _, err := core.Compile(f, opts); err != nil {
				t.Errorf("%v/%s: %v", method, f.Name, err)
			}
		}
	}
}
