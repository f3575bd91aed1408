// Package experiments reproduces every table and figure of the paper's
// evaluation section over the synthetic workload suites:
//
//	Fig. 1   — program classification and interleaving sensitivity
//	Table I  — suite characteristics
//	Fig. 10  — Platform-RV#1 static conflicts (1024 regs; 2/4/8 banks)
//	Table II — RV#1 combined conflicts and reductions
//	Table III— RV#1 conflict reduction vs spill increment
//	Fig. 11  — Platform-RV#2 dynamic conflicts (32 regs; 2/4 banks)
//	Table IV — RV#2 static+dynamic conflicts and reductions
//	Table V  — RV#2 conflict reduction vs spill increment
//	Table VI — Platform-DSA conflict ratios (2x4-bpc vs N-banked non)
//	Table VII— Platform-DSA spills / copies / cycles
//
// Each experiment returns a structured result plus a formatted table so the
// same code backs cmd/benchtab, the root package's benchmarks and
// EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"prescount/internal/bankfile"
	"prescount/internal/compilecache"
	"prescount/internal/core"
	"prescount/internal/pool"
	"prescount/internal/sim"
	"prescount/internal/workload"
)

// Workers bounds the compile parallelism of RunSweep (and everything built
// on it: RV1, RV2, the Fig. 1 / Table I scans): 0 selects
// runtime.GOMAXPROCS(0). cmd/benchtab's -parallel flag sets it.
var Workers int

// DisableCache turns off the per-sweep compile cache (cmd/benchtab's
// -cache=off escape hatch). Results are identical either way — the cache
// only skips recomputation of content-identical compiles and of the
// method-independent pipeline prefix (see internal/compilecache); this
// switch exists to measure the uncached baseline and to bisect should the
// byte-identity guarantee ever be in doubt.
var DisableCache bool

// VerifyEach threads the phase-boundary verifier (core.Options.VerifyEach)
// into every experiment compile — cmd/benchtab's -verify-each flag. Tables
// are identical either way (the verifier only observes); wall-clock grows by
// the verifier overhead, and verified compiles bypass the compile cache.
var VerifyEach bool

// Validate threads the translation validator (core.Options.Validate) into
// every experiment compile — cmd/benchtab's -validate flag. Tables are
// identical either way (the validator only observes); wall-clock grows by
// the symbolic-execution overhead, and validated compiles bypass the
// compile cache.
var Validate bool

// Methods compared throughout, in the order of the paper's figure legends
// ("non, bcr, brc and bpc").
var Methods = []core.Method{core.MethodNon, core.MethodBCR, core.MethodBRC, core.MethodBPC}

// SharedCache, when non-nil, replaces the per-run compile cache of every
// experiment: fig1/table1, the rv sweeps and the DSA tables all draw from
// (and feed) the same cache, so a full pipeline run reuses entries across
// stages — table7 recompiles exactly table6's configurations, the rv sweeps
// reuse fig1/table1's full entries, and the 32- and 1024-register platforms
// share every prefix snapshot. cmd/benchtab sets it for the whole run and
// attributes per-stage hits via compilecache.Stats.Delta. Tests leave it
// nil: a per-run cache keeps their stats assertions self-contained.
// DisableCache wins over SharedCache.
var SharedCache *compilecache.Cache

// newCache returns the compile cache for one experiment run: nil (uncached
// compiles) when DisableCache is set, SharedCache when installed, else a
// fresh cache. A per-run cache bounds retention to that run's working set;
// the shared mode trades that bound for cross-stage reuse.
func newCache() *compilecache.Cache {
	if DisableCache {
		return nil
	}
	if SharedCache != nil {
		return SharedCache
	}
	return compilecache.New()
}

// Counts aggregates the metrics of one program under one configuration.
type Counts struct {
	// Reles is the conflict-relevant instruction count.
	Reles int
	// Static is the static bank-conflict count.
	Static int
	// Weighted is the loop-weighted static conflict cost.
	Weighted float64
	// SpillInstrs counts spill stores plus reloads.
	SpillInstrs int
	// Copies counts register copies in the final code.
	Copies int
	// SubViol counts subgroup alignment violations.
	SubViol int
	// Dynamic is the simulated dynamic conflict-instance count (only for
	// experiments that simulate).
	Dynamic int64
	// Cycles is the simulated cycle count (only for DSA experiments).
	Cycles int64
	// Funcs and Instrs describe size.
	Funcs, Instrs int
	// Wins counts the functions each method won under MethodPortfolio,
	// indexed by method. An array, unlike a map, keeps Counts comparable,
	// and the tag keeps the sweeps' JSON schema as it was.
	Wins [core.MethodPortfolio]int `json:"-"`
}

func (c *Counts) add(o Counts) {
	c.Reles += o.Reles
	c.Static += o.Static
	c.Weighted += o.Weighted
	c.SpillInstrs += o.SpillInstrs
	c.Copies += o.Copies
	c.SubViol += o.SubViol
	c.Dynamic += o.Dynamic
	c.Cycles += o.Cycles
	c.Funcs += o.Funcs
	c.Instrs += o.Instrs
	for m, n := range o.Wins {
		c.Wins[m] += n
	}
}

// CompileProgram compiles every function of p under opts and aggregates the
// statistics, counting race wins under MethodPortfolio. When simulate is
// true, hot functions of the allocated code are executed to collect
// dynamic conflicts and cycles.
func CompileProgram(p *workload.Program, opts core.Options, simulate, vliw bool) (Counts, error) {
	opts.VerifyEach = opts.VerifyEach || VerifyEach
	opts.Validate = opts.Validate || Validate
	var total Counts
	for _, f := range p.Funcs() {
		res, err := core.Compile(f, opts)
		if err != nil {
			return Counts{}, fmt.Errorf("%s/%s: %w", p.Name, f.Name, err)
		}
		total.add(Counts{
			Reles:       res.Report.ConflictRelevant,
			Static:      res.Report.StaticConflicts,
			Weighted:    res.Report.WeightedConflicts,
			SpillInstrs: core.Spills(res.Report),
			Copies:      res.Report.Copies,
			SubViol:     res.Report.SubgroupViolations,
			Funcs:       1,
			Instrs:      res.Report.Instrs,
		})
		if opts.Method == core.MethodPortfolio {
			total.Wins[res.Method]++
		}
		if simulate && p.IsHot(f.Name) {
			sr, err := sim.Run(res.Func, sim.Options{
				File:    opts.File,
				MemSize: p.MemSize,
				VLIW:    vliw,
			})
			if err != nil {
				return Counts{}, fmt.Errorf("simulate %s/%s: %w", p.Name, f.Name, err)
			}
			total.Dynamic += sr.DynamicConflicts
			total.Cycles += sr.Cycles
		}
	}
	return total, nil
}

// Sweep holds per-program counts for every (bank, method) cell of one
// platform setting.
type Sweep struct {
	// Suites are the workloads swept.
	Suites []*workload.Suite
	// Banks are the bank counts swept.
	Banks []int
	// Cells maps (bank, method) to per-program counts keyed by program
	// name.
	Cells map[cellKey]map[string]Counts
	// NumRegs is the file size of the platform setting.
	NumRegs int
	// CacheStats reports the compile cache's effectiveness over the sweep
	// (zero value when the cache was disabled).
	CacheStats compilecache.Stats
}

type cellKey struct {
	bank   int
	method core.Method
}

// RunSweep compiles the suites at every (bank, method) combination of a
// platform setting. simulate adds dynamic metrics (Platform-RV#2 style).
// Programs compile in parallel on the shared worker pool (internal/pool,
// bounded by Workers) — every pipeline stage is pure per function and all
// generators are deterministic, and cells are filled in job order after
// the pool drains, so the result is identical to a serial run.
//
// One compile cache (internal/compilecache) is shared across every job of
// the sweep unless DisableCache is set: the method-independent pipeline
// prefix of each function runs once instead of once per (bank, method)
// point, and content-identical functions — the suites repeat kernels
// heavily — compile once per point instead of once per occurrence. The
// per-program Counts are byte-identical either way (the cache returns
// shared immutable results of the very compiles it skipped; pinned by
// TestSweepCacheByteIdentity).
func RunSweep(suites []*workload.Suite, numRegs int, banks []int, simulate bool) (*Sweep, error) {
	sw := &Sweep{
		Suites:  suites,
		Banks:   banks,
		Cells:   map[cellKey]map[string]Counts{},
		NumRegs: numRegs,
	}
	cache := newCache()
	// Snapshot so CacheStats reports this sweep's own lookups even on a
	// shared cache (Delta of a fresh cache is the stats themselves).
	var before compilecache.Stats
	if cache != nil {
		before = cache.Stats()
	}
	type job struct {
		key  cellKey
		prog *workload.Program
		opts core.Options
	}
	var jobs []job
	for _, bank := range banks {
		file := bankfile.Config{NumRegs: numRegs, NumBanks: bank, NumSubgroups: 1, ReadPorts: 1}
		for _, m := range Methods {
			sw.Cells[cellKey{bank, m}] = map[string]Counts{}
			for _, s := range suites {
				for _, p := range s.Programs {
					jobs = append(jobs, job{cellKey{bank, m}, p, core.Options{File: file, Method: m, Cache: cache, VerifyEach: VerifyEach}})
				}
			}
		}
	}

	results := make([]Counts, len(jobs))
	err := pool.Run(context.Background(), len(jobs), Workers, func(_ context.Context, i int) error {
		c, err := CompileProgram(jobs[i].prog, jobs[i].opts, simulate, false)
		if err != nil {
			return err
		}
		results[i] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, j := range jobs {
		sw.Cells[j.key][j.prog.Name] = results[i]
	}
	if cache != nil {
		sw.CacheStats = cache.Stats().Delta(before)
	}
	return sw, nil
}

// Get returns the per-program counts of one cell.
func (sw *Sweep) Get(bank int, m core.Method) map[string]Counts {
	return sw.Cells[cellKey{bank, m}]
}

// CacheStatsString renders the sweep's compile-cache effectiveness as one
// line, e.g. for benchtab's per-sweep footer. Empty when the cache was
// disabled.
func (sw *Sweep) CacheStatsString() string {
	s := sw.CacheStats
	if s.FullHits+s.FullMisses == 0 {
		return ""
	}
	line := fmt.Sprintf("compile cache: full %d/%d hits (%.1f%%), prefix %d/%d reuses (%.1f%%)",
		s.FullHits, s.FullHits+s.FullMisses, 100*s.FullHitRate(),
		s.PrefixHits, s.PrefixHits+s.PrefixMisses, 100*s.PrefixHitRate())
	if s.AllocHits+s.AllocMisses > 0 {
		line += fmt.Sprintf(", alloc %d/%d shares (%.1f%%)",
			s.AllocHits, s.AllocHits+s.AllocMisses, 100*s.AllocHitRate())
	}
	return line + fmt.Sprintf(", ~%d KiB retained", s.BytesRetained/1024)
}

// Total sums a metric over every program of a cell.
func (sw *Sweep) Total(bank int, m core.Method, metric func(Counts) int64) int64 {
	var t int64
	for _, c := range sw.Get(bank, m) {
		t += metric(c)
	}
	return t
}

// SuiteTotal sums a metric over the programs of one suite in a cell.
func (sw *Sweep) SuiteTotal(suiteName string, bank int, m core.Method, metric func(Counts) int64) int64 {
	var t int64
	for _, s := range sw.Suites {
		if s.Name != suiteName {
			continue
		}
		cell := sw.Get(bank, m)
		for _, p := range s.Programs {
			t += metric(cell[p.Name])
		}
	}
	return t
}

// StaticMetric extracts static conflicts.
func StaticMetric(c Counts) int64 { return int64(c.Static) }

// DynamicMetric extracts dynamic conflict instances.
func DynamicMetric(c Counts) int64 { return c.Dynamic }

// SpillMetric extracts spill instruction counts.
func SpillMetric(c Counts) int64 { return int64(c.SpillInstrs) }

// GeomeanReduction computes the geometric mean, over programs with a
// nonzero baseline, of the relative conflict reduction of method m against
// the baseline method at the given bank count: 1 - conflicts(m)/conflicts(base).
// Negative per-program reductions are clamped at -1 to keep the geometric
// mean defined (the paper reports geometric means of reductions).
func (sw *Sweep) GeomeanReduction(bank int, m, base core.Method, metric func(Counts) int64) float64 {
	baseCell := sw.Get(bank, base)
	mCell := sw.Get(bank, m)
	prod := 1.0
	n := 0
	var names []string
	for name := range baseCell {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := metric(baseCell[name])
		if b == 0 {
			continue
		}
		red := 1 - float64(metric(mCell[name]))/float64(b)
		// Clamp severe per-program regressions so a single outlier cannot
		// zero the whole geometric mean (factor floor 0.05).
		if red < -0.95 {
			red = -0.95
		}
		prod *= 1 + red
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Pow(prod, 1/float64(n)) - 1
}

// table is a minimal fixed-width text table writer.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) addRow(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return sb.String()
}

func itoa(v int64) string { return fmt.Sprintf("%d", v) }
func ftoa(v float64) string {
	return fmt.Sprintf("%.2f", v)
}
func pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }
