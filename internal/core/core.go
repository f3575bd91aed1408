// Package core implements the paper's Figure 4 register-allocation
// pipeline:
//
//	Register Coalescing → [SDG-based Subgroup Splitting] →
//	Pre-allocation Scheduling → [RCG-based Bank Assignment] →
//	Enhanced Register Allocation
//
// and the per-function / per-module statistics the evaluation section
// reports. The bracketed phases are the paper's contribution: subgroup
// splitting runs only for DSA (bank-subgroup) register files, and RCG bank
// assignment runs only for the bpc (PresCount) method.
package core

import (
	"context"
	"fmt"

	"prescount/internal/analysis"
	"prescount/internal/assign"
	"prescount/internal/bankfile"
	"prescount/internal/coalesce"
	"prescount/internal/compilecache"
	"prescount/internal/conflict"
	"prescount/internal/ir"
	"prescount/internal/pool"
	"prescount/internal/regalloc"
	"prescount/internal/renumber"
	"prescount/internal/sched"
	"prescount/internal/scratch"
	"prescount/internal/sdg"
	"prescount/internal/sim"
	"prescount/internal/tv"
	"prescount/internal/verify"
)

// Method aliases the allocator's method selector.
type Method = regalloc.Method

// Re-exported method constants.
const (
	MethodNon      = regalloc.MethodNon
	MethodBCR      = regalloc.MethodBCR
	MethodBPC      = regalloc.MethodBPC
	MethodBRC      = regalloc.MethodBRC
	MethodBinpack  = regalloc.MethodBinpack
	MethodColoring = regalloc.MethodColoring
	// MethodPortfolio races the allocators on each function and keeps the
	// cheapest result (see race).
	MethodPortfolio = regalloc.MethodPortfolio
)

// ParseMethod maps a method name ("non", "bcr", "bpc", "brc", "binpack",
// "coloring" or "portfolio") to its Method constant. It is the one parser
// of method strings: prescountc, loadgen, the daemon and the facade all
// call it, so every surface names the methods alike.
func ParseMethod(s string) (Method, error) {
	for m := MethodNon; m <= MethodPortfolio; m++ {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown method %q (want non, bcr, brc, bpc, binpack, coloring or portfolio)", s)
}

// Options configures a pipeline run.
type Options struct {
	// File is the FP register file configuration.
	File bankfile.Config
	// Method selects non / bcr / brc / bpc / binpack / coloring, or
	// portfolio, which races bpc, brc, binpack and coloring.
	Method Method
	// Subgroups enables the DSA path: SDG-based subgroup splitting plus
	// subgroup displacement hints in the allocator. Requires
	// File.HasSubgroups().
	Subgroups bool
	// THRES overrides Algorithm 1's register-pressure threshold
	// (assign.DefaultTHRES if zero).
	THRES float64
	// SDGMaxGroup overrides the subgroup-splitting group size bound.
	SDGMaxGroup int
	// DisablePressure ablates the bank-pressure prioritization.
	DisablePressure bool
	// DisableFreeHints ablates free-register balancing.
	DisableFreeHints bool
	// DisableSched skips pre-allocation scheduling.
	DisableSched bool
	// DisableCoalesce skips register coalescing.
	DisableCoalesce bool
	// LinearScan swaps the greedy allocator for the linear-scan allocator
	// (the paper's future-work integration of PresCount with other RA
	// methods). Incompatible with Subgroups, MethodBCR and the allocator
	// methods (binpack, coloring), which select their own allocator.
	LinearScan bool
	// VerifySemantics simulates the function before and after compilation
	// and fails on divergent memory images (slow; meant for tests).
	VerifySemantics bool
	// VerifyMemSize is the memory size for semantic verification.
	VerifyMemSize int
	// VerifyEach runs the phase-boundary static verifier (internal/verify)
	// between every pipeline stage: structural well-formedness and
	// def-before-use/trip-count deltas after each prefix phase, scheduling
	// dependence preservation, liveness-cache agreement and bank-constraint
	// satisfaction before/after allocation, allocation soundness, and a
	// from-scratch reproduction of the conflict report. Failures surface as
	// *ir.Diag errors naming the violated rule. Off by default: the
	// verifier clones, recomputes analyses and scans quadratically, so it
	// is strictly zero-cost when disabled. Like VerifySemantics it bypasses
	// opts.Cache (checks must actually run) and never enters a cache key.
	VerifyEach bool
	// Validate runs the translation validator (internal/tv) on the
	// finished compile: the input MIR and the allocated output are
	// executed symbolically over a shared value-number space, and any
	// use, store or branch whose resolved value diverges from the
	// reference fails the compile with a *ir.Diag naming the violated
	// T-rule. Complementary to VerifyEach (local phase invariants) and
	// VerifySemantics (one concrete execution): Validate proves value
	// equivalence over all paths. Off by default and strictly zero-cost
	// when disabled; like the other Verify* modes it bypasses opts.Cache
	// (the check must actually run) and never enters a cache key.
	Validate bool
	// Workers bounds CompileModule's concurrency: 0 means
	// runtime.GOMAXPROCS(0), 1 forces the serial path. Compile itself is
	// always single-threaded; functions are independent pipeline units.
	Workers int
	// Cache, when non-nil, memoizes compilation (internal/compilecache):
	// identical (function fingerprint, options) compiles return a shared
	// immutable Result, and the method-independent pipeline prefix
	// (coalescing → SDG splitting → scheduling) is reused across compiles
	// that differ only in suffix options (File, Method, THRES, ablations).
	// Cached Results are shared across callers and must not be mutated.
	// Ignored when VerifySemantics is set (verification must actually run).
	// Cache, Workers and the Verify* fields never enter the cache key.
	Cache *compilecache.Cache
}

// Result is the outcome of compiling one function.
type Result struct {
	// Func is the allocated function (a transformed clone of the input).
	Func *ir.Func
	// Report is the static conflict analysis of the allocated code.
	Report *conflict.Report
	// Alloc is the register allocator's statistics.
	Alloc *regalloc.Result
	// Coalesce, SDG and Sched report the pre-passes.
	Coalesce coalesce.Stats
	// SDG reports subgroup splitting (zero value when not run).
	SDG sdg.Stats
	// Sched reports pre-allocation scheduling.
	Sched sched.Stats
	// BankAssignForced counts RCG nodes that Algorithm 1 had to force into
	// a conflicting bank.
	BankAssignForced int
	// Renumber reports the post-allocation renumbering pass (brc only).
	Renumber renumber.Stats
	// Method is the method that produced the allocation: Options.Method,
	// or the winning candidate of a portfolio race.
	Method Method
}

// Compile runs the full pipeline over a copy of f and returns the allocated
// function plus statistics. The input function is not modified.
//
// With opts.Cache set, the compile is memoized: a repeat of an identical
// (function, options) pair returns the shared cached Result, and compiles
// that share the function and prefix options but differ in suffix options
// clone the cached post-scheduling snapshot instead of re-running the
// prefix. Both paths produce byte-identical results to an uncached run
// (pinned by TestCompileCachedMatchesUncached and the sweep byte-identity
// test in internal/experiments).
func Compile(f *ir.Func, opts Options) (*Result, error) {
	return CompileContext(context.Background(), f, opts)
}

// CompileContext is Compile under a context: cancellation (or deadline
// expiry) is checked at every phase boundary of the pipeline, so a compile
// whose caller has gone away stops burning CPU within one phase. The
// returned error wraps ctx.Err(), so errors.Is(err,
// context.DeadlineExceeded) / context.Canceled discriminates cancellation
// from compile failures. Cancelled compiles are never retained by
// opts.Cache — a later lookup of the same key recomputes under its own
// context. Under MethodPortfolio it compiles the candidate methods in rank
// order (race) and returns the winner's result.
func CompileContext(ctx context.Context, f *ir.Func, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %s: %w", f.Name, err)
	}
	if opts.Method == MethodPortfolio {
		return race(ctx, f, opts)
	}
	if err := f.Verify(); err != nil {
		return nil, fmt.Errorf("core: input: %w", err)
	}
	if err := opts.File.Normalize().Validate(); err != nil {
		return nil, fmt.Errorf("core: %s: %w", f.Name, err)
	}
	if err := checkInputBounds(f, opts); err != nil {
		return nil, err
	}
	if opts.Subgroups && !opts.File.Normalize().HasSubgroups() {
		return nil, fmt.Errorf("core: subgroup mode requires a subgrouped register file, got %v", opts.File)
	}
	if opts.LinearScan && opts.Subgroups {
		return nil, fmt.Errorf("core: linear scan does not implement subgroup displacement hints")
	}
	if opts.Method == MethodBinpack || opts.Method == MethodColoring {
		if opts.Subgroups {
			return nil, fmt.Errorf("core: method %v does not implement subgroup displacement hints", opts.Method)
		}
		if opts.LinearScan {
			return nil, fmt.Errorf("core: method %v selects its own allocator, incompatible with LinearScan", opts.Method)
		}
	}
	if opts.Cache != nil && !opts.VerifySemantics && !opts.VerifyEach && !opts.Validate {
		return compileCached(ctx, f, opts)
	}

	res, err := runStage(ctx, opts, &Result{Func: f}, f.Name, prefixLayer, postLayer, false)
	if err != nil {
		return nil, err
	}
	if opts.VerifySemantics {
		if err := verifySemantics(f, res.Func, opts); err != nil {
			return nil, err
		}
	}
	if opts.Validate {
		if err := tv.Check(f, res.Func, opts.File.Normalize().NumRegs); err != nil {
			return nil, fmt.Errorf("core: %s: translation validation: %w", f.Name, err)
		}
	}
	return res, nil
}

// checkInputBounds rejects inputs whose pre-assigned physical FP
// registers fall outside opts.File before any phase runs. ir.Func.Verify
// cannot check this — structural well-formedness is file-independent —
// and letting such a function through would either trip the verifier's
// V033 mid-pipeline (misattributing an input problem to the pipeline) or,
// unverified, silently emit code addressing registers the target does not
// have. Found by the fuzz harness's translation-validation oracle work.
func checkInputBounds(f *ir.Func, opts Options) error {
	limit := opts.File.Normalize().NumRegs
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			for _, r := range in.Defs {
				if r.IsFPR() && r.FPRIndex() >= limit {
					return fmt.Errorf("core: input: %s/%s#%d: physical FP register %v outside the %d-register file",
						f.Name, b.Name, i, r, limit)
				}
			}
			for _, r := range in.Uses {
				if r.IsFPR() && r.FPRIndex() >= limit {
					return fmt.Errorf("core: input: %s/%s#%d: physical FP register %v outside the %d-register file",
						f.Name, b.Name, i, r, limit)
				}
			}
		}
	}
	return nil
}

// layer is the compile-cache layer a phase's output is stored under (see
// compileCached). The uncached path runs all three in one stage.
type layer uint8

const (
	// prefixLayer is the method-independent prefix, keyed by PrefixDigest.
	prefixLayer layer = iota
	// allocLayer is bank assignment and allocation, keyed by AllocDigest
	// when the allocation is bank-oblivious (allocCacheable).
	allocLayer
	// postLayer is the bank-aware tail, stored only in the full layer.
	postLayer
)

// phase is one Figure-4 phase as runStage runs it. when (nil: always)
// says whether the options select the phase; keepCFG says the phase
// rewrites instructions without touching control flow, so the analysis
// cache keeps its CFG. Under VerifyEach, pre (if set) runs before the phase
// and post after it; a failing post is reported as "verify after" the
// phase, a failing pre under the name its error carries.
type phase struct {
	name      string
	layer     layer
	when      func(Options) bool
	run       func(*stage) error
	keepCFG   bool
	pre, post func(*stage) error
}

// phases is the paper's Figure 4 in pipeline order: register coalescing,
// SDG-based subgroup splitting (DSA only; after coalescing so splitting
// copies are not re-coalesced), pre-allocation scheduling, RCG-based bank
// assignment (bpc only), enhanced register allocation, renumbering (brc
// only) and the per-bank conflict analysis.
//
// Under VerifyEach every prefix phase is bracketed by a snapshot and a
// delta check (structure, trip counts, no new undefined reads), and every
// later phase by the audit of what it produced. The verifier state stays
// nil when VerifyEach is off: it must cost nothing on the production path.
var phases = [...]phase{
	{
		name: "coalesce", layer: prefixLayer,
		when: func(o Options) bool { return !o.DisableCoalesce },
		run:  func(s *stage) error { s.res.Coalesce = coalesce.RunCached(s.f, s.ac); return nil },
		pre:  capture,
		post: func(s *stage) error { return s.delta("coalesce") },
	},
	{
		name: "sdg-split", layer: prefixLayer, keepCFG: true, // splitting only inserts copies and renames ranges
		when: func(o Options) bool { return o.Subgroups },
		run: func(s *stage) error {
			s.res.SDG = sdg.Split(s.f, sdg.Options{MaxGroup: s.opts.SDGMaxGroup})
			return nil
		},
		pre:  capture,
		post: func(s *stage) error { return s.delta("sdg-split") },
	},
	{
		name: "sched", layer: prefixLayer, keepCFG: true, // scheduling reorders within blocks only
		when: func(o Options) bool { return !o.DisableSched },
		run:  func(s *stage) error { s.res.Sched = sched.Run(s.f); return nil },
		pre:  capture,
		post: func(s *stage) error {
			if err := s.delta("sched"); err != nil {
				return err
			}
			return s.snap.CheckSched(s.f)
		},
	},
	{
		// Bank assignment reads the live ranges and leaves the IR alone, so
		// the liveness it pulls stays valid for the allocator.
		name: "bank-assign", layer: allocLayer,
		when: func(o Options) bool { return o.Method == MethodBPC },
		run: func(s *stage) error {
			s.bank = assign.PresCount(s.f, s.ac.RCG(), s.ac.Liveness(), s.opts.File.Normalize(), assign.Options{
				THRES:            s.opts.THRES,
				DisablePressure:  s.opts.DisablePressure,
				DisableFreeHints: s.opts.DisableFreeHints,
			})
			s.res.BankAssignForced = len(s.bank.Forced)
			return nil
		},
		post: func(s *stage) error { return verify.CheckBankAssignment(s.f, s.ac.RCG(), s.bank, s.opts.File) },
	},
	{
		name: "regalloc", layer: allocLayer,
		// The allocator is the main consumer of the cached liveness: audit
		// the cache against a from-scratch recompute before handing it over,
		// and capture the pre-allocation entry-live-in set so a dropped
		// reload is distinguishable from an input the program reads
		// undefined.
		pre: func(s *stage) error {
			if err := verify.CheckLiveness(s.f, s.ac); err != nil {
				return fmt.Errorf("liveness-cache: %w", err)
			}
			s.preEntry = verify.EntryLive(s.f)
			return nil
		},
		run: func(s *stage) error {
			// The brc baseline allocates bank-obliviously and fixes conflicts
			// afterwards by renumbering. Under VerifyEach the allocator
			// records its assignment for the soundness checks.
			ra := regalloc.Options{Cfg: s.opts.File, Method: s.opts.Method, Analyses: s.ac, Record: s.opts.VerifyEach}
			if ra.Method == MethodBRC {
				ra.Method = MethodNon
			}
			if s.bank != nil {
				ra.BankOf, ra.FreeHints = s.bank.BankOf, s.bank.FreeHints
			}
			if s.opts.Subgroups {
				ra.SubgroupGroups = sdg.Build(s.f).GroupOf()
			}
			var err error
			switch {
			case s.opts.Method == MethodBinpack:
				s.res.Alloc, err = regalloc.RunBinpack(s.f, ra)
			case s.opts.Method == MethodColoring:
				s.res.Alloc, err = regalloc.RunColoring(s.ctx, s.f, ra)
			case s.opts.LinearScan:
				s.res.Alloc, err = regalloc.RunLinearScan(s.f, ra)
			default:
				s.res.Alloc, err = regalloc.RunContext(s.ctx, s.f, ra)
			}
			if err != nil {
				return fmt.Errorf("core: %s: %w", s.f.Name, err)
			}
			return nil
		},
		post: func(s *stage) error {
			if err := verify.WellFormed(s.f); err != nil {
				return err
			}
			return verify.CheckAllocation(s.f, s.opts.File, s.res.Alloc, s.preEntry)
		},
	},
	{
		// Global register renumbering over the physical-register conflict
		// graph permutes registers, never blocks: the CFG retained through
		// the allocator's rewrite serves it and the conflict analysis.
		name: "renumber", layer: postLayer, keepCFG: true,
		when: func(o Options) bool { return o.Method == MethodBRC },
		run:  func(s *stage) error { s.res.Renumber = renumber.Run(s.f, s.opts.File, s.ac.CFG()); return nil },
		// The recorded assignments no longer describe the renumbered code;
		// re-check structure and file bounds only.
		post: func(s *stage) error {
			if err := verify.WellFormed(s.f); err != nil {
				return err
			}
			return verify.CheckPhysBounds(s.f, s.opts.File)
		},
	},
	{
		name: "conflict-analysis", layer: postLayer,
		run: func(s *stage) error {
			s.res.Method = s.opts.Method
			s.res.Report = conflict.AnalyzeWith(s.f, s.opts.File, s.ac.CFG())
			return nil
		},
		post: func(s *stage) error { return verify.CheckReport(s.f, s.opts.File, s.res.Report) },
	},
}

// stage is the state the phases of one runStage call share.
type stage struct {
	ctx  context.Context
	opts Options
	f    *ir.Func // res.Func, rewritten in place
	ac   *analysis.Cache
	res  *Result
	bank *assign.Result // bank assignment's output for the allocator (bpc)
	// Under VerifyEach: the function before the running prefix phase, and
	// the entry live-ins before allocation.
	snap     *verify.Snapshot
	preEntry map[ir.Reg]bool
}

// capture is the VerifyEach pre-check of the prefix phases.
func capture(s *stage) error {
	s.snap = verify.Capture(s.f)
	return nil
}

// delta is the VerifyEach post-check of the prefix phases: structure, then
// trip counts and def-before-use against the snapshot taken before phase.
func (s *stage) delta(phase string) error {
	if err := verify.WellFormed(s.f); err != nil {
		return err
	}
	return s.snap.CheckDelta(s.f, phase)
}

// runStage runs the phases of layers first through last on a copy of from
// (the input function in a bare Result, or a Result a cache layer stored)
// under the given function name, and returns the copy with the phases'
// fields filled. from's function is cloned unless share is set and the
// names agree: a stored Result serves every compile that hits its layer,
// so only phases that just read the function may run on it in place.
//
// The context is checked before every phase, so a compile whose caller
// has gone away stops within one phase. One analysis cache serves every
// phase of the stage: CFG, liveness and the RCG are computed at most once
// per IR mutation generation, and keepCFG phases retain the CFG, so an
// uncached compile runs cfg.Compute exactly once. The scratch arena backs
// the liveness bitsets for exactly this stage; nothing the stage returns
// points into it, so Put resets it and recycles the slab for the worker's
// next compile.
func runStage(ctx context.Context, opts Options, from *Result, name string, first, last layer, share bool) (*Result, error) {
	res := *from
	if !share || res.Func.Name != name {
		res.Func = from.Func.Clone()
		res.Func.Name = name
	}
	ar := scratch.Get()
	defer scratch.Put(ar)
	s := &stage{ctx: ctx, opts: opts, f: res.Func, ac: analysis.NewWithArena(res.Func, ar), res: &res}
	for i := range phases {
		p := &phases[i]
		if p.layer < first || p.layer > last || p.when != nil && !p.when(opts) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: %s: cancelled before %s: %w", name, p.name, err)
		}
		if opts.VerifyEach && p.pre != nil {
			if err := p.pre(s); err != nil {
				return nil, fmt.Errorf("core: %s: verify after %w", name, err)
			}
		}
		if err := p.run(s); err != nil {
			return nil, err
		}
		if p.keepCFG {
			s.ac.RetainCFG()
		}
		if opts.VerifyEach {
			if err := p.post(s); err != nil {
				return nil, fmt.Errorf("core: %s: verify after %s: %w", name, p.name, err)
			}
		}
	}
	return &res, nil
}

// funcBytes estimates the memory retained by a cached function, for the
// cache's BytesRetained accounting: per-instruction struct plus operand
// slices, block headers and the vreg table. An estimate is fine — the
// statistic exists to show cache growth, not to bound it.
func funcBytes(f *ir.Func) int64 {
	n := int64(0)
	for _, b := range f.Blocks {
		n += 96 // Block header, name, slice headers
		for _, in := range b.Instrs {
			n += 64 + 8*int64(len(in.Defs)+len(in.Uses))
		}
	}
	return n + 8*int64(len(f.VRegs))
}

// compileCached is the memoized compile path. The full layer dedups
// identical (fingerprint, full options) compiles. Below it, the prefix
// layer holds the function after the prefix phases under PrefixDigest,
// and for a bank-oblivious allocation (allocCacheable) the alloc layer
// holds it after allocation under AllocDigest, so one allocation serves
// every bank count of a sweep. Each layer stores a *Result whose Func is
// the function as the layer leaves it, shared and never mutated.
func compileCached(ctx context.Context, f *ir.Func, opts Options) (*Result, error) {
	fp := f.Fingerprint()
	res, err := stored(opts.Cache.Full(compilecache.Key{Fingerprint: fp, Digest: opts.FullDigest()}, func() (any, int64, error) {
		pre, err := stored(opts.Cache.Prefix(compilecache.Key{Fingerprint: fp, Digest: opts.PrefixDigest()}, func() (any, int64, error) {
			return entry(runStage(ctx, opts, &Result{Func: f}, f.Name, prefixLayer, prefixLayer, false))
		}))
		if err != nil {
			return nil, 0, err
		}
		if !allocCacheable(opts) {
			return entry(runStage(ctx, opts, pre, f.Name, allocLayer, postLayer, false))
		}
		alloc, err := stored(opts.Cache.Alloc(compilecache.Key{Fingerprint: fp, Digest: opts.AllocDigest()}, func() (any, int64, error) {
			return entry(runStage(ctx, opts, pre, f.Name, allocLayer, allocLayer, false))
		}))
		if err != nil {
			return nil, 0, err
		}
		// brc renumbers in place; non's conflict analysis only reads the
		// allocated function, so it shares the stored one.
		return entry(runStage(ctx, opts, alloc, f.Name, postLayer, postLayer, opts.Method == MethodNon))
	}))
	if err != nil {
		return nil, err
	}
	// Rename unconditionally, not only on memory hits: a disk-backed cache
	// returns hit=false for entries served from the second level, and those
	// were encoded under whichever name first produced the fingerprint.
	// renamedResult is a no-op when the names already agree.
	return renamedResult(res, f.Name), nil
}

// entry is what a cache layer's compute function returns for a stage's
// outcome: the Result and the bytes its function retains.
func entry(res *Result, err error) (any, int64, error) {
	if err != nil {
		return nil, 0, err
	}
	return res, funcBytes(res.Func), nil
}

// stored is the Result a cache layer lookup returned.
func stored(v any, _ bool, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return v.(*Result), nil
}

// renamedResult rematerializes a shared immutable Result under the caller's
// symbol name. A shared result may have been produced for a structurally
// identical function under another name (fingerprints elide names);
// everything but the function itself (reports, stats) is name-independent
// and stays shared. Same-name results are returned as-is.
func renamedResult(res *Result, name string) *Result {
	if res.Func.Name == name {
		return res
	}
	cp := *res
	fn := res.Func.Clone()
	fn.Name = name
	cp.Func = fn
	return &cp
}

// allocCacheable reports whether opts selects a bank-oblivious allocation:
// methods non and brc never consult the bank count before the
// post-allocation phases (brc's allocation phase is non's), so their
// allocation can be keyed by AllocDigest and shared across bank sweeps.
// The subgroup path feeds displacement hints into the allocator, which do
// read bank geometry, so it stays on the plain path.
func allocCacheable(opts Options) bool {
	return (opts.Method == MethodNon || opts.Method == MethodBRC) && !opts.Subgroups
}

func verifySemantics(orig, allocated *ir.Func, opts Options) error {
	memSize := opts.VerifyMemSize
	if memSize == 0 {
		memSize = 1 << 16
	}
	before, err := sim.Run(orig, sim.Options{MemSize: memSize})
	if err != nil {
		return fmt.Errorf("core: %s: simulating original: %w", orig.Name, err)
	}
	after, err := sim.Run(allocated, sim.Options{MemSize: memSize, File: opts.File})
	if err != nil {
		return fmt.Errorf("core: %s: simulating allocated: %w", orig.Name, err)
	}
	if before.MemChecksum != after.MemChecksum {
		return fmt.Errorf("core: %s: allocation changed semantics (checksum %x -> %x)",
			orig.Name, before.MemChecksum, after.MemChecksum)
	}
	return nil
}

// ModuleResult aggregates per-function results of one module.
type ModuleResult struct {
	// PerFunc maps function name to its result.
	PerFunc map[string]*Result
	// Totals sums the conflict reports.
	Totals conflict.Report
}

// CompileModule compiles every function of m, fanning out over a worker
// pool bounded by opts.Workers (0 = runtime.GOMAXPROCS(0), 1 = serial).
// Compile clones its input and every pipeline stage is pure per function,
// so functions are independent units; results are aggregated in sorted
// name order after the pool drains, making the ModuleResult — including
// the float summation order inside Totals — identical to a serial run
// regardless of completion order. The first failing function wins and
// cancels the remaining work.
func CompileModule(m *ir.Module, opts Options) (*ModuleResult, error) {
	funcs := m.SortedFuncs()
	results := make([]*Result, len(funcs))
	err := pool.Run(context.Background(), len(funcs), opts.Workers, func(ctx context.Context, i int) error {
		r, err := CompileContext(ctx, funcs[i], opts)
		if err != nil {
			return err
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &ModuleResult{PerFunc: make(map[string]*Result, len(funcs))}
	for i, f := range funcs {
		out.PerFunc[f.Name] = results[i]
		out.Totals.Add(results[i].Report)
	}
	return out, nil
}

// Spills returns the spill instruction count of a report (stores plus
// reloads), the quantity the paper tables call "register spilling".
func Spills(r *conflict.Report) int { return r.SpillStores + r.SpillReloads }
