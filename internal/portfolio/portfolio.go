package portfolio

import (
	"context"
	"fmt"

	"prescount/internal/core"
	"prescount/internal/ir"
)

// ModePortfolio is the mode name accepted alongside the single-method
// names wherever a method string is parsed: race every default method.
const ModePortfolio = "portfolio"

// ParseMethod parses a method string wherever one is accepted (prescountc
// and loadgen -method, the daemon's method field, benchtab's method
// columns): a single method, or ModePortfolio, reported as race with a
// zero m. Anything else is an error that lists the valid names.
func ParseMethod(s string) (m core.Method, race bool, err error) {
	if s == ModePortfolio {
		return 0, true, nil
	}
	if m, ok := core.ParseMethod(s); ok {
		return m, false, nil
	}
	return 0, false, fmt.Errorf("unknown method %q (want non, bcr, brc, bpc, binpack, coloring or portfolio)", s)
}

// CompileFunc races DefaultMethods on one function under
// DefaultStaticCost, one goroutine per method. opts.Method is ignored —
// the portfolio decides it.
func CompileFunc(ctx context.Context, f *ir.Func, opts core.Options) (*RaceResult, error) {
	return Race(ctx, f, opts, DefaultMethods(), DefaultStaticCost(), 0)
}
