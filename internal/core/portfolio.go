package core

import (
	"context"
	"fmt"

	"prescount/internal/ir"
)

// The allocator portfolio (MethodPortfolio) compiles each function under
// several methods and keeps the cheapest result. Its contract is
// determinism: the winning method, and with it the output program, is a
// pure function of the input and options, and so is the set of candidates
// that run, and with it what reaches the compile cache and the disk. See
// DESIGN.md, "Allocator portfolio".

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

// race compiles f once per portfolio method, in rank order on the caller's
// goroutine, and returns the result with the lowest StaticScore; its Method
// names the winner. opts.Method is overridden per candidate. With
// opts.Cache set, the first candidate computes the method-independent
// prefix (coalesce → SDG → sched) and the later ones hit it.
//
// A candidate that fails does not fail the portfolio: race errors only when
// every candidate does, or when ctx ends. A candidate that scores 0 ends
// the loop: no later rank can beat cost 0 at an earlier rank, so stopping
// never changes the winner.
func race(ctx context.Context, f *ir.Func, opts Options) (*Result, error) {
	var (
		best      *Result
		bestScore int
		firstErr  error
	)
	for _, m := range portfolioMethods {
		mopts := opts
		mopts.Method = m
		r, err := CompileContext(ctx, f, mopts)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		score := StaticScore(r.Report.StaticConflicts, Spills(r.Report), r.Report.Copies)
		if best == nil || score < bestScore {
			best, bestScore = r, score
		}
		if score == 0 {
			break
		}
	}
	if best == nil {
		return nil, fmt.Errorf("portfolio: %s: every candidate failed: %w", f.Name, firstErr)
	}
	return best, nil
}
