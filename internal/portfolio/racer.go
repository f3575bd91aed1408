package portfolio

import (
	"context"
	"fmt"
	"sync"
	"time"

	"prescount/internal/core"
	"prescount/internal/ir"
	"prescount/internal/pool"
)

// DefaultMethods is the racer's standard candidate set, in rank order: the
// paper's method first (it wins cost ties), then its renumbering baseline,
// then the two portfolio allocators. The rank order is part of the
// determinism contract — ties resolve to the earliest rank.
func DefaultMethods() []core.Method {
	return []core.Method{core.MethodBPC, core.MethodBRC, core.MethodBinpack, core.MethodColoring}
}

// Candidate reports one method's run within a race.
type Candidate struct {
	Method core.Method
	// Score is the cost-model score (valid only when Err is nil and
	// Skipped is false).
	Score float64
	// Err is the candidate's compile or scoring error. One failing
	// candidate does not fail the race.
	Err error
	// Skipped reports that the candidate was cancelled by the zero-cost
	// short-circuit: a better-ranked candidate already achieved cost 0,
	// which no later rank can beat. Which candidates are skipped varies
	// with scheduling; the winner does not.
	Skipped bool
	// Wall is the candidate's compile+score wall time (0 when skipped).
	Wall time.Duration
}

// RaceResult is the outcome of racing one function.
type RaceResult struct {
	// Result is the winning compile.
	Result *core.Result
	// Winner is the winning method.
	Winner core.Method
	// Candidates lists every raced method in rank order.
	Candidates []Candidate
}

// Race compiles f once per method concurrently and returns the result with
// the lowest cost; ties resolve to the earliest method rank. opts.Method is
// overridden per candidate; sharing opts.Cache across candidates makes the
// method-independent pipeline prefix (coalesce → SDG → sched) compile once
// and be reused by every racer via the cache's singleflight, so only the
// assign+alloc suffixes actually race.
//
// workers bounds concurrency (0 = one worker per method). A candidate that
// fails does not fail the race — the race errors only when every candidate
// does, or when ctx itself is cancelled. When a candidate scores 0 (a
// perfect result), every candidate ranked after it is cancelled at its next
// phase boundary: no later rank can win against cost 0 at an earlier rank,
// so the short-circuit never changes the winner.
func Race(ctx context.Context, f *ir.Func, opts core.Options, methods []core.Method, cost Cost, workers int) (*RaceResult, error) {
	if len(methods) == 0 {
		return nil, fmt.Errorf("portfolio: empty method set")
	}
	if cost == nil {
		cost = DefaultStaticCost()
	}
	if workers <= 0 {
		workers = len(methods)
	}
	n := len(methods)

	type slot struct {
		res     *core.Result
		score   float64
		err     error
		skipped bool
		wall    time.Duration
	}
	slots := make([]slot, n)

	candCtx := make([]context.Context, n)
	candCancel := make([]context.CancelFunc, n)
	for i := range methods {
		candCtx[i], candCancel[i] = context.WithCancel(ctx)
	}
	defer func() {
		for _, c := range candCancel {
			c()
		}
	}()

	var mu sync.Mutex
	zeroRank := n // lowest rank that scored 0 so far
	checkZero := func(i int) bool {
		mu.Lock()
		defer mu.Unlock()
		return i > zeroRank
	}
	reportZero := func(i int) {
		mu.Lock()
		defer mu.Unlock()
		if i < zeroRank {
			zeroRank = i
			for j := i + 1; j < n; j++ {
				candCancel[j]()
			}
		}
	}

	err := pool.Run(ctx, n, workers, func(pctx context.Context, i int) error {
		if checkZero(i) {
			slots[i].skipped = true
			return nil
		}
		start := time.Now()
		mopts := opts
		mopts.Method = methods[i]
		res, cerr := core.CompileContext(candCtx[i], f, mopts)
		if cerr != nil {
			if candCtx[i].Err() != nil {
				if ctx.Err() != nil {
					return cerr // the caller is gone: abort the whole race
				}
				slots[i].skipped = true // short-circuited mid-compile
				return nil
			}
			slots[i].err = cerr
			return nil
		}
		score, serr := cost.Score(res)
		if serr != nil {
			slots[i].err = serr
			return nil
		}
		slots[i] = slot{res: res, score: score, wall: time.Since(start)}
		if score == 0 {
			reportZero(i)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := &RaceResult{Candidates: make([]Candidate, n)}
	best := -1
	var firstErr error
	for i := range slots {
		out.Candidates[i] = Candidate{
			Method: methods[i], Score: slots[i].score,
			Err: slots[i].err, Skipped: slots[i].skipped, Wall: slots[i].wall,
		}
		if slots[i].err != nil {
			if firstErr == nil {
				firstErr = slots[i].err
			}
			continue
		}
		if slots[i].skipped || slots[i].res == nil {
			continue
		}
		if best < 0 || slots[i].score < slots[best].score {
			best = i
		}
	}
	if best < 0 {
		if firstErr != nil {
			return nil, fmt.Errorf("portfolio: %s: every candidate failed: %w", f.Name, firstErr)
		}
		return nil, fmt.Errorf("portfolio: %s: no candidate produced a result", f.Name)
	}
	out.Result = slots[best].res
	out.Winner = methods[best]
	return out, nil
}
