package core

import (
	"context"
	"fmt"
	"sync"

	"prescount/internal/ir"
	"prescount/internal/pool"
)

// The allocator portfolio (MethodPortfolio) races several methods on each
// function and keeps the cheapest result. Its contract is determinism:
// whichever order the candidates finish in, the winning method, and with
// it the output program, is a pure function of the input and options,
// byte-identical run to run and across worker-pool sizes. See DESIGN.md,
// "Allocator portfolio".

// portfolioMethods are the candidates, in rank order: the paper's method
// first (it wins cost ties), then its renumbering baseline, then the two
// portfolio allocators. Ties resolve to the earliest rank.
var portfolioMethods = [...]Method{MethodBPC, MethodBRC, MethodBinpack, MethodColoring}

// StaticScore is the portfolio's cost model: a weighted sum of the static
// conflict analysis that needs no simulation. The weights reflect rough
// dynamic prices: a conflict stalls one read port for a cycle, a spill
// store or reload is a memory round trip, a copy is one ALU slot.
func StaticScore(conflicts, spills, copies int) int {
	return 4*conflicts + 2*spills + copies
}

// race compiles f once per portfolio method on at most workers goroutines
// (0 means one per method) and returns the result with the lowest
// StaticScore; its Method names the winner. opts.Method is overridden per
// candidate. With opts.Cache set, the candidates share the
// method-independent prefix (coalesce → SDG → sched) through the cache's
// singleflight, so only the assign+alloc suffixes actually race.
//
// A candidate that fails does not fail the race: the race errors only when
// every candidate does, or when ctx itself is cancelled. When a candidate
// scores 0, every candidate ranked after it is cancelled at its next phase
// boundary: no later rank can beat cost 0 at an earlier rank, so the
// short-circuit never changes the winner.
func race(ctx context.Context, f *ir.Func, opts Options, workers int) (*Result, error) {
	const n = len(portfolioMethods)
	if workers <= 0 {
		workers = n
	}
	var (
		res     [n]*Result
		score   [n]int
		errs    [n]error
		ctxs    [n]context.Context
		cancels [n]context.CancelFunc
	)
	for i := range ctxs {
		ctxs[i], cancels[i] = context.WithCancel(ctx)
	}
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()

	var mu sync.Mutex
	zeroRank := n // guarded by mu: the lowest rank that scored 0 so far
	err := pool.Run(ctx, n, workers, func(_ context.Context, i int) error {
		mu.Lock()
		skip := i > zeroRank
		mu.Unlock()
		if skip {
			return nil
		}
		mopts := opts
		mopts.Method = portfolioMethods[i]
		r, err := CompileContext(ctxs[i], f, mopts)
		if err != nil {
			if ctxs[i].Err() == nil {
				errs[i] = err
				return nil
			}
			if ctx.Err() != nil {
				return err // the caller is gone: abort the whole race
			}
			return nil // short-circuited mid-compile
		}
		res[i], score[i] = r, StaticScore(r.Report.StaticConflicts, Spills(r.Report), r.Report.Copies)
		if score[i] == 0 {
			mu.Lock()
			if i < zeroRank {
				zeroRank = i
				for j := i + 1; j < n; j++ {
					cancels[j]()
				}
			}
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// pool.Run returned nil, so every candidate ran. A missing result is a
	// failure, or a short-circuit behind a zero score that wins anyway.
	// Rank 0 is never short-circuited, so with no result at all, errs[0]
	// holds the first failure in rank order.
	best := -1
	for i, r := range res {
		if r != nil && (best < 0 || score[i] < score[best]) {
			best = i
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("portfolio: %s: every candidate failed: %w", f.Name, errs[0])
	}
	return res[best], nil
}
