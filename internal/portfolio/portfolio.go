package portfolio

import (
	"context"
	"fmt"
	"sort"

	"prescount/internal/conflict"
	"prescount/internal/core"
	"prescount/internal/ir"
	"prescount/internal/pool"
)

// ModePortfolio is the mode name accepted alongside the single-method
// names wherever a method string is parsed: race every configured method.
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

// Config configures portfolio compilation.
type Config struct {
	// Methods is the racer's candidate set in rank order
	// (DefaultMethods() when empty).
	Methods []core.Method
	// Cost is the scoring model (DefaultStaticCost() when nil).
	Cost Cost
	// Workers bounds each race's concurrency (one per method when 0).
	Workers int
}

func (c Config) withDefaults() Config {
	if len(c.Methods) == 0 {
		c.Methods = DefaultMethods()
	}
	if c.Cost == nil {
		c.Cost = DefaultStaticCost()
	}
	return c
}

// CompileFunc races every configured method on one function. opts.Method
// is ignored — the portfolio decides it.
func CompileFunc(ctx context.Context, f *ir.Func, opts core.Options, cfg Config) (*RaceResult, error) {
	cfg = cfg.withDefaults()
	return Race(ctx, f, opts, cfg.Methods, cfg.Cost, cfg.Workers)
}

// ModuleResult aggregates a portfolio compile of a whole module.
type ModuleResult struct {
	// PerFunc maps function name to its race outcome.
	PerFunc map[string]*RaceResult
	// Totals sums the winners' conflict reports (same aggregation as
	// core.ModuleResult).
	Totals conflict.Report
	// Wins counts race victories per method name.
	Wins map[string]int
}

// CompileModule runs the portfolio over every function of m. Functions fan
// out over a worker pool bounded by opts.Workers while each function's race
// is bounded by cfg.Workers; results aggregate in sorted name order, so the
// ModuleResult is identical to a serial run regardless of either pool's
// size.
func CompileModule(ctx context.Context, m *ir.Module, opts core.Options, cfg Config) (*ModuleResult, error) {
	cfg = cfg.withDefaults()
	funcs := m.SortedFuncs()
	results := make([]*RaceResult, len(funcs))
	err := pool.Run(ctx, len(funcs), opts.Workers, func(ctx context.Context, i int) error {
		r, err := CompileFunc(ctx, funcs[i], opts, cfg)
		if err != nil {
			return fmt.Errorf("portfolio: %s: %w", funcs[i].Name, err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &ModuleResult{
		PerFunc: make(map[string]*RaceResult, len(funcs)),
		Wins:    map[string]int{},
	}
	names := make([]string, len(funcs))
	for i, f := range funcs {
		names[i] = f.Name
	}
	sort.Strings(names)
	for i, f := range funcs {
		out.PerFunc[f.Name] = results[i]
	}
	for _, name := range names {
		r := out.PerFunc[name]
		addReport(&out.Totals, r.Result.Report)
		out.Wins[r.Winner.String()]++
	}
	return out, nil
}

func addReport(dst *conflict.Report, src *conflict.Report) {
	dst.ConflictRelevant += src.ConflictRelevant
	dst.StaticConflicts += src.StaticConflicts
	dst.ConflictInstrs += src.ConflictInstrs
	dst.WeightedConflicts += src.WeightedConflicts
	dst.SubgroupViolations += src.SubgroupViolations
	dst.Copies += src.Copies
	dst.SpillStores += src.SpillStores
	dst.SpillReloads += src.SpillReloads
	dst.Instrs += src.Instrs
}
