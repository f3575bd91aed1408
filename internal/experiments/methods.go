package experiments

import (
	"context"
	"fmt"
	"time"

	"prescount/internal/bankfile"
	"prescount/internal/compilecache"
	"prescount/internal/core"
	"prescount/internal/pool"
	"prescount/internal/workload"
)

// compareMethods are the -exp methods comparison columns: every single
// method in rank order, then the portfolio.
var compareMethods = []core.Method{
	core.MethodNon, core.MethodBCR, core.MethodBRC, core.MethodBPC,
	core.MethodBinpack, core.MethodColoring, core.MethodPortfolio,
}

// MethodCell is one (suite, method) cell of the benchtab -methods
// comparison: the suite-aggregate static metrics, the simulated cycles of
// the hot functions, the default static-cost score the portfolio races
// under, and the cell's compile wall time.
type MethodCell struct {
	Suite  string `json:"suite"`
	Method string `json:"method"`
	Static int    `json:"static_conflicts"`
	Spills int    `json:"spill_instrs"`
	Copies int    `json:"copies"`
	Cycles int64  `json:"cycles"`
	// Score is core.StaticScore, the portfolio's cost model, over the
	// aggregate conflicts, spills and copies — the number the CI portfolio
	// gate compares across methods.
	Score  float64 `json:"static_score"`
	WallNS int64   `json:"wall_ns"`
	// Wins attributes race victories per winning method (portfolio only).
	Wins map[string]int `json:"wins,omitempty"`
}

// MethodComparison is the full -methods stage result, emitted into
// BENCH_pipeline.json.
type MethodComparison struct {
	// File names the register-file geometry compared under.
	File  string       `json:"file"`
	Cells []MethodCell `json:"cells"`
}

// CompareMethods compiles every workload suite under every method and the
// portfolio on one register file, aggregating per (suite, method).
// All cells share one compile cache (unless DisableCache), so the
// method-independent pipeline prefix of each function compiles once for the
// whole comparison — per-cell wall times therefore measure the method's own
// assign+alloc suffix after the first cell has paid for the prefix.
func CompareMethods(suites []*workload.Suite, file bankfile.Config) (*MethodComparison, error) {
	cache := newCache()
	out := &MethodComparison{File: fmt.Sprint(file.Normalize())}
	for _, m := range compareMethods {
		for _, s := range suites {
			cell, err := compareCell(s, file, m, cache)
			if err != nil {
				return nil, err
			}
			out.Cells = append(out.Cells, *cell)
		}
	}
	return out, nil
}

// compareCell compiles one suite under one method.
func compareCell(s *workload.Suite, file bankfile.Config, method core.Method, cache *compilecache.Cache) (*MethodCell, error) {
	opts := core.Options{File: file, Method: method, Cache: cache}
	start := time.Now()
	results := make([]Counts, len(s.Programs))
	err := pool.Run(context.Background(), len(s.Programs), Workers, func(_ context.Context, i int) error {
		var err error
		results[i], err = CompileProgram(s.Programs[i], opts, true, false)
		return err
	})
	if err != nil {
		return nil, err
	}

	var total Counts
	for _, c := range results {
		total.add(c)
	}
	cell := &MethodCell{
		Suite:  s.Name,
		Method: method.String(),
		Static: total.Static,
		Spills: total.SpillInstrs,
		Copies: total.Copies,
		Cycles: total.Cycles,
		Score:  float64(core.StaticScore(total.Static, total.SpillInstrs, total.Copies)),
	}
	if method == core.MethodPortfolio {
		cell.Wins = map[string]int{}
		for m, n := range total.Wins {
			if n > 0 {
				cell.Wins[core.Method(m).String()] = n
			}
		}
	}
	cell.WallNS = time.Since(start).Nanoseconds()
	return cell, nil
}

// MethodCompareString renders the comparison as a fixed-width table.
func MethodCompareString(mc *MethodComparison) string {
	t := &table{header: []string{"suite", "method", "static", "spills", "copies", "cycles", "score", "wall", "wins"}}
	for _, c := range mc.Cells {
		wins := ""
		if c.Wins != nil {
			for _, m := range []string{"bpc", "brc", "binpack", "coloring"} {
				if n := c.Wins[m]; n > 0 {
					if wins != "" {
						wins += " "
					}
					wins += fmt.Sprintf("%s:%d", m, n)
				}
			}
		}
		t.addRow(c.Suite, c.Method, itoa(int64(c.Static)), itoa(int64(c.Spills)),
			itoa(int64(c.Copies)), itoa(c.Cycles), fmt.Sprintf("%.0f", c.Score),
			time.Duration(c.WallNS).Round(time.Millisecond).String(), wins)
	}
	return t.String()
}
