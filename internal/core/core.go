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
// context. Under MethodPortfolio it races the candidate methods (race) and
// returns the winner's result.
func CompileContext(ctx context.Context, f *ir.Func, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %s: %w", f.Name, err)
	}
	if opts.Method == MethodPortfolio {
		return race(ctx, f, opts, 0)
	}
	if err := f.Verify(); err != nil {
		return nil, fmt.Errorf("core: input: %w", err)
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

	work := f.Clone()
	// One analysis cache serves every phase: CFG, liveness and the RCG are
	// computed at most once per IR mutation generation, and phases that
	// rewrite instructions without touching control flow retain the CFG —
	// a full compile runs cfg.Compute exactly once. The scratch arena backs
	// the liveness bitsets for exactly this compile; Put resets it and
	// recycles the slab for the worker's next compile.
	ar := scratch.Get()
	defer scratch.Put(ar)
	ac := analysis.NewWithArena(work, ar)
	res := &Result{}
	if err := runPrefix(ctx, work, ac, opts, res); err != nil {
		return nil, err
	}
	if err := runSuffix(ctx, work, ac, opts, res); err != nil {
		return nil, err
	}
	if opts.VerifySemantics {
		if err := verifySemantics(f, work, opts); err != nil {
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

// phaseCheck is the per-phase cancellation point: it returns a wrapped
// ctx.Err() naming the function and the phase about to run.
func phaseCheck(ctx context.Context, f *ir.Func, phase string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: %s: cancelled before %s: %w", f.Name, phase, err)
	}
	return nil
}

// verifyErr wraps a phase-boundary verifier failure with the function and
// phase it fired after; the underlying *ir.Diag (rule ID, location) stays
// recoverable through errors.As.
func verifyErr(f *ir.Func, phase string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("core: %s: verify after %s: %w", f.Name, phase, err)
}

// runPrefix executes the method-independent prefix of the Figure-4 pipeline
// in place on work: register coalescing, SDG-based subgroup splitting (DSA
// only; positioned after coalescing so splitting copies are not
// re-coalesced) and pre-allocation scheduling. Only the options covered by
// PrefixDigest influence it.
func runPrefix(ctx context.Context, work *ir.Func, ac *analysis.Cache, opts Options, res *Result) error {
	// Under VerifyEach, every phase is bracketed by a snapshot and a delta
	// check: structural well-formedness, trip-count preservation and
	// no-new-undefined-reads after each phase, plus the dependence-order
	// audit for the scheduler. snap stays nil when disabled — the verifier
	// must cost nothing on the production path.
	var snap *verify.Snapshot
	// Phase 1: register coalescing.
	if !opts.DisableCoalesce {
		if err := phaseCheck(ctx, work, "coalesce"); err != nil {
			return err
		}
		if opts.VerifyEach {
			snap = verify.Capture(work)
		}
		res.Coalesce = coalesce.RunCached(work, ac)
		if opts.VerifyEach {
			if err := verifyErr(work, "coalesce", verify.WellFormed(work)); err != nil {
				return err
			}
			if err := verifyErr(work, "coalesce", snap.CheckDelta(work, "coalesce")); err != nil {
				return err
			}
		}
	}
	// Phase 2 (DSA only): SDG-based subgroup splitting.
	if opts.Subgroups {
		if err := phaseCheck(ctx, work, "sdg-split"); err != nil {
			return err
		}
		if opts.VerifyEach {
			snap = verify.Capture(work)
		}
		res.SDG = sdg.Split(work, sdg.Options{MaxGroup: opts.SDGMaxGroup})
		ac.RetainCFG() // splitting only inserts copies and renames ranges
		if opts.VerifyEach {
			if err := verifyErr(work, "sdg-split", verify.WellFormed(work)); err != nil {
				return err
			}
			if err := verifyErr(work, "sdg-split", snap.CheckDelta(work, "sdg-split")); err != nil {
				return err
			}
		}
	}
	// Phase 3: pre-allocation scheduling.
	if !opts.DisableSched {
		if err := phaseCheck(ctx, work, "sched"); err != nil {
			return err
		}
		if opts.VerifyEach {
			snap = verify.Capture(work)
		}
		res.Sched = sched.Run(work)
		ac.RetainCFG() // scheduling reorders within blocks only
		if opts.VerifyEach {
			if err := verifyErr(work, "sched", verify.WellFormed(work)); err != nil {
				return err
			}
			if err := verifyErr(work, "sched", snap.CheckDelta(work, "sched")); err != nil {
				return err
			}
			if err := verifyErr(work, "sched", snap.CheckSched(work)); err != nil {
				return err
			}
		}
	}
	return nil
}

// runSuffix executes the bank-aware tail of the pipeline on the
// post-scheduling function: RCG-based bank assignment (bpc), enhanced
// register allocation, post-allocation renumbering (brc) and the conflict
// analysis. It fills the remaining fields of res.
func runSuffix(ctx context.Context, work *ir.Func, ac *analysis.Cache, opts Options, res *Result) error {
	if err := runAlloc(ctx, work, ac, opts, res); err != nil {
		return err
	}
	return runPost(ctx, work, ac, opts, res)
}

// runAlloc executes the allocation half of the suffix — RCG-based bank
// assignment (bpc only) and enhanced register allocation — in place on
// work, filling res.Alloc and res.BankAssignForced. For the bank-oblivious
// methods (non, and brc whose allocation phase is mapped to non below) the
// result depends only on the options covered by AllocDigest, which is what
// lets the cache's alloc layer share it across bank counts.
func runAlloc(ctx context.Context, work *ir.Func, ac *analysis.Cache, opts Options, res *Result) error {
	// Phase 4 (bpc only): RCG-based bank assignment. It reuses the live
	// range information and does not modify the IR, so the liveness pulled
	// here stays valid for Phase 5's allocator.
	raOpts := regalloc.Options{Cfg: opts.File, Method: opts.Method, Analyses: ac}
	if opts.Method == MethodBPC {
		if err := phaseCheck(ctx, work, "bank-assign"); err != nil {
			return err
		}
		ares := assign.PresCount(work, ac.RCG(), ac.Liveness(), opts.File.Normalize(), assign.Options{
			THRES:            opts.THRES,
			DisablePressure:  opts.DisablePressure,
			DisableFreeHints: opts.DisableFreeHints,
		})
		if opts.VerifyEach {
			if err := verifyErr(work, "bank-assign", verify.CheckBankAssignment(work, ac.RCG(), ares, opts.File)); err != nil {
				return err
			}
		}
		raOpts.BankOf = ares.BankOf
		raOpts.FreeHints = ares.FreeHints
		res.BankAssignForced = len(ares.Forced)
	}
	if opts.Subgroups {
		raOpts.SubgroupGroups = sdg.Build(work).GroupOf()
	}

	// Phase 5: enhanced register allocation. The brc baseline allocates
	// bank-obliviously and fixes conflicts afterwards by renumbering.
	if err := phaseCheck(ctx, work, "regalloc"); err != nil {
		return err
	}
	if raOpts.Method == MethodBRC {
		raOpts.Method = MethodNon
	}
	var preEntry map[ir.Reg]bool
	if opts.VerifyEach {
		// The allocator is the main consumer of the cached liveness: audit
		// the cache against a from-scratch recompute before handing it over,
		// record the allocation for the soundness checks, and capture the
		// pre-allocation entry-live-in set so a dropped reload is
		// distinguishable from an input the program reads undefined.
		if err := verifyErr(work, "liveness-cache", verify.CheckLiveness(work, ac)); err != nil {
			return err
		}
		raOpts.Record = true
		preEntry = verify.EntryLive(work)
	}
	var alloc *regalloc.Result
	var err error
	switch {
	case opts.Method == MethodBinpack:
		alloc, err = regalloc.RunBinpack(work, raOpts)
	case opts.Method == MethodColoring:
		alloc, err = regalloc.RunColoring(ctx, work, raOpts)
	case opts.LinearScan:
		alloc, err = regalloc.RunLinearScan(work, raOpts)
	default:
		alloc, err = regalloc.RunContext(ctx, work, raOpts)
	}
	if err != nil {
		return fmt.Errorf("core: %s: %w", work.Name, err)
	}
	res.Alloc = alloc
	if opts.VerifyEach {
		if err := verifyErr(work, "regalloc", verify.WellFormed(work)); err != nil {
			return err
		}
		if err := verifyErr(work, "regalloc", verify.CheckAllocation(work, opts.File, alloc, preEntry)); err != nil {
			return err
		}
	}
	return nil
}

// runPost executes the post-allocation tail — renumbering (brc only) and
// the per-bank conflict analysis — on the allocated function, filling
// res.Renumber, res.Func and res.Report. Unlike the allocation it always
// reads the full File (bank count, read ports), so it reruns per sweep
// point even when the allocation itself was an alloc-layer hit.
func runPost(ctx context.Context, work *ir.Func, ac *analysis.Cache, opts Options, res *Result) error {
	// Post-allocation phase (brc only): global register renumbering over
	// the physical-register conflict graph. The CFG retained through the
	// allocator's rewrite is reused here and again by the conflict
	// analysis below (renumbering permutes registers, never blocks).
	if opts.Method == MethodBRC {
		if err := phaseCheck(ctx, work, "renumber"); err != nil {
			return err
		}
		res.Renumber = renumber.Run(work, opts.File, ac.CFG())
		ac.RetainCFG()
		if opts.VerifyEach {
			// Renumbering permutes physical registers, so the recorded
			// assignments no longer describe the code; re-check structure
			// and file bounds only.
			if err := verifyErr(work, "renumber", verify.WellFormed(work)); err != nil {
				return err
			}
			if err := verifyErr(work, "renumber", verify.CheckPhysBounds(work, opts.File)); err != nil {
				return err
			}
		}
	}
	if err := phaseCheck(ctx, work, "conflict-analysis"); err != nil {
		return err
	}
	res.Func = work
	res.Method = opts.Method
	res.Report = conflict.AnalyzeWith(work, opts.File, ac.CFG())
	if opts.VerifyEach {
		if err := verifyErr(work, "conflict-analysis", verify.CheckReport(work, opts.File, res.Report)); err != nil {
			return err
		}
	}
	return nil
}

// prefixSnapshot is the immutable post-scheduling state stored in the
// cache's prefix layer: the transformed function plus the prefix phases'
// statistics. The function is never handed out directly — every consumer
// clones it — so the snapshot stays pristine.
type prefixSnapshot struct {
	fn       *ir.Func
	coalesce coalesce.Stats
	sdg      sdg.Stats
	sched    sched.Stats
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

// compileCached is the memoized compile path. Layer 1 dedups identical
// (fingerprint, full options) compiles; layer 2 memoizes the pipeline
// prefix under (fingerprint, prefix options).
func compileCached(ctx context.Context, f *ir.Func, opts Options) (*Result, error) {
	fp := f.Fingerprint()
	fullKey := compilecache.Key{Fingerprint: fp, Digest: opts.FullDigest()}
	v, _, err := opts.Cache.Full(fullKey, func() (any, int64, error) {
		res, err := compileViaPrefix(ctx, f, fp, opts)
		if err != nil {
			return nil, 0, err
		}
		return res, funcBytes(res.Func), nil
	})
	if err != nil {
		return nil, err
	}
	// Rename unconditionally, not only on memory hits: a disk-backed cache
	// returns hit=false for entries served from the second level, and those
	// were encoded under whichever name first produced the fingerprint.
	// renamedResult is a no-op when the names already agree.
	return renamedResult(v.(*Result), f.Name), nil
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

// compileViaPrefix compiles f reusing (or populating) the prefix layer of
// the cache.
func compileViaPrefix(ctx context.Context, f *ir.Func, fp ir.Fingerprint, opts Options) (*Result, error) {
	prefixKey := compilecache.Key{Fingerprint: fp, Digest: opts.PrefixDigest()}
	v, _, err := opts.Cache.Prefix(prefixKey, func() (any, int64, error) {
		work := f.Clone()
		// The snapshot retains work (fresh heap from Clone) but none of its
		// analyses, so the arena can be released at closure end.
		ar := scratch.Get()
		defer scratch.Put(ar)
		ac := analysis.NewWithArena(work, ar)
		var pres Result
		if err := runPrefix(ctx, work, ac, opts, &pres); err != nil {
			return nil, 0, err
		}
		return &prefixSnapshot{fn: work, coalesce: pres.Coalesce, sdg: pres.SDG, sched: pres.Sched},
			funcBytes(work), nil
	})
	if err != nil {
		return nil, err
	}
	snap := v.(*prefixSnapshot)
	if allocCacheable(opts) {
		return compileViaAlloc(ctx, f, fp, opts, snap)
	}
	work := snap.fn.Clone()
	// The snapshot may carry another symbol name; the clone is private to
	// this compile, so renaming is safe and keeps diagnostics and the
	// materialized Result.Func correct.
	work.Name = f.Name
	res := &Result{Coalesce: snap.coalesce, SDG: snap.sdg, Sched: snap.sched}
	ar := scratch.Get()
	defer scratch.Put(ar)
	if err := runSuffix(ctx, work, analysis.NewWithArena(work, ar), opts, res); err != nil {
		return nil, err
	}
	return res, nil
}

// allocCacheable reports whether opts selects a bank-oblivious allocation:
// methods non and brc never consult the bank count before the
// post-allocation phases (brc's allocation phase is mapped to non in
// runAlloc), so their allocation can be keyed by AllocDigest and shared
// across bank sweeps. The subgroup path feeds displacement hints into the
// allocator, which do read bank geometry, so it stays on the plain path.
func allocCacheable(opts Options) bool {
	return (opts.Method == MethodNon || opts.Method == MethodBRC) && !opts.Subgroups
}

// allocSnapshot is the immutable post-allocation state stored in the
// cache's alloc layer: the allocated (pre-renumbering) function plus the
// allocator's statistics. Like the prefix snapshot it is never mutated —
// brc consumers clone it before renumbering, and non consumers share it
// (conflict analysis is read-only).
type allocSnapshot struct {
	fn     *ir.Func
	alloc  *regalloc.Result
	forced int
}

// compileViaAlloc compiles f reusing (or populating) the alloc layer with
// the bank-oblivious allocation, then runs the cheap bank-aware tail
// (renumbering for brc, conflict analysis) for this sweep point.
func compileViaAlloc(ctx context.Context, f *ir.Func, fp ir.Fingerprint, opts Options, psnap *prefixSnapshot) (*Result, error) {
	allocKey := compilecache.Key{Fingerprint: fp, Digest: opts.AllocDigest()}
	v, _, err := opts.Cache.Alloc(allocKey, func() (any, int64, error) {
		work := psnap.fn.Clone()
		ar := scratch.Get()
		defer scratch.Put(ar)
		var ares Result
		if err := runAlloc(ctx, work, analysis.NewWithArena(work, ar), opts, &ares); err != nil {
			return nil, 0, err
		}
		return &allocSnapshot{fn: work, alloc: ares.Alloc, forced: ares.BankAssignForced},
			funcBytes(work), nil
	})
	if err != nil {
		return nil, err
	}
	asnap := v.(*allocSnapshot)
	res := &Result{
		Coalesce: psnap.coalesce, SDG: psnap.sdg, Sched: psnap.sched,
		Alloc: asnap.alloc, BankAssignForced: asnap.forced,
	}
	work := asnap.fn
	if opts.Method == MethodBRC || work.Name != f.Name {
		// brc renumbers in place, and a shared snapshot may carry another
		// symbol name — either way this compile needs a private clone.
		work = work.Clone()
		work.Name = f.Name
	}
	ar := scratch.Get()
	defer scratch.Put(ar)
	if err := runPost(ctx, work, analysis.NewWithArena(work, ar), opts, res); err != nil {
		return nil, err
	}
	return res, nil
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
