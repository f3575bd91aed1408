package experiments

import (
	"context"
	"fmt"
	"time"

	"prescount/internal/bankfile"
	"prescount/internal/compilecache"
	"prescount/internal/core"
	"prescount/internal/pool"
	"prescount/internal/portfolio"
	"prescount/internal/sim"
	"prescount/internal/workload"
)

// MethodNames lists the -methods comparison columns: every single method in
// rank order, then the portfolio.
func MethodNames() []string {
	return []string{"non", "bcr", "brc", "bpc", "binpack", "coloring", "portfolio"}
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
	// Score is the portfolio's default static cost over the aggregate
	// (conflicts, spills and copies weighted as in
	// portfolio.DefaultStaticCost) — the number the CI portfolio gate
	// compares across methods.
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
	for _, name := range MethodNames() {
		for _, s := range suites {
			cell, err := compareCell(s, file, name, cache)
			if err != nil {
				return nil, err
			}
			out.Cells = append(out.Cells, *cell)
		}
	}
	return out, nil
}

// compareCell compiles one suite under one method name.
func compareCell(s *workload.Suite, file bankfile.Config, name string, cache *compilecache.Cache) (*MethodCell, error) {
	opts := core.Options{File: file, Cache: cache, VerifyEach: VerifyEach, Validate: Validate}
	cell := &MethodCell{Suite: s.Name, Method: name}
	start := time.Now()

	type progResult struct {
		counts Counts
		wins   map[string]int
	}
	results := make([]progResult, len(s.Programs))
	method, race, err := portfolio.ParseMethod(name)
	if err != nil {
		return nil, fmt.Errorf("methods: %w", err)
	}

	err = pool.Run(context.Background(), len(s.Programs), Workers, func(ctx context.Context, i int) error {
		p := s.Programs[i]
		if !race {
			mopts := opts
			mopts.Method = method
			c, err := CompileProgram(p, mopts, true, false)
			if err != nil {
				return err
			}
			results[i].counts = c
			return nil
		}
		r := &results[i]
		r.wins = map[string]int{}
		for _, f := range p.Funcs() {
			rr, err := portfolio.CompileFunc(ctx, f, opts)
			if err != nil {
				return fmt.Errorf("%s/%s/%s: %w", name, p.Name, f.Name, err)
			}
			rep := rr.Result.Report
			r.counts.add(Counts{
				Reles:       rep.ConflictRelevant,
				Static:      rep.StaticConflicts,
				Weighted:    rep.WeightedConflicts,
				SpillInstrs: core.Spills(rep),
				Copies:      rep.Copies,
				SubViol:     rep.SubgroupViolations,
				Funcs:       1,
				Instrs:      rep.Instrs,
			})
			r.wins[rr.Winner.String()]++
			if p.IsHot(f.Name) {
				sr, err := sim.Run(rr.Result.Func, sim.Options{File: opts.File, MemSize: p.MemSize})
				if err != nil {
					return fmt.Errorf("simulate %s/%s/%s: %w", name, p.Name, f.Name, err)
				}
				r.counts.Dynamic += sr.DynamicConflicts
				r.counts.Cycles += sr.Cycles
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var total Counts
	for i := range results {
		total.add(results[i].counts)
		if results[i].wins != nil {
			if cell.Wins == nil {
				cell.Wins = map[string]int{}
			}
			for m, n := range results[i].wins {
				cell.Wins[m] += n
			}
		}
	}
	cell.Static = total.Static
	cell.Spills = total.SpillInstrs
	cell.Copies = total.Copies
	cell.Cycles = total.Cycles
	sc := portfolio.DefaultStaticCost()
	cell.Score = sc.Conflicts*float64(cell.Static) + sc.Spills*float64(cell.Spills) + sc.Copies*float64(cell.Copies)
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
