// Command benchtab regenerates the paper's evaluation tables and figures
// over the synthetic workload suites.
//
// Usage:
//
//	benchtab -exp all
//	benchtab -exp fig1,table2,table6
//	benchtab -exp fig10 -parallel 8 -cpuprofile rv1.pprof
//	benchtab -exp all -json BENCH_pipeline.json
//
// Experiments: fig1, table1, fig10, table2, table3, fig11, table4, table5,
// table6, table7, methods, all. Output is plain text, one section per
// experiment, in the paper's layout so measured numbers can sit next to
// published ones (see EXPERIMENTS.md). The "methods" experiment is the
// allocator-portfolio comparison: every suite under every method plus the
// portfolio, with per-cell static metrics, simulated cycles, cost scores
// and racer win attribution — all emitted under "methods" in the -json
// output.
//
// -parallel N bounds the compile worker pool for the sweeps (0, the
// default, uses runtime.GOMAXPROCS; 1 forces serial). -cache off disables
// the content-addressed compile cache (internal/compilecache); when on, a
// single cache is shared across every experiment of the run, so later
// stages reuse earlier stages' prefix, allocation and full entries
// (table7 recompiles exactly table6's configurations; the rv sweeps reuse
// fig1/table1's). Results are identical at any -parallel or -cache
// setting — only wall-clock changes. -disk-cache DIR layers the persistent
// on-disk result store (internal/diskcache) under the run-wide cache, so a
// rerun of the same experiments starts from the previous run's full-compile
// results (requires -cache on; -disk-cache-bytes caps the store).
// -cpuprofile FILE writes a pprof CPU profile of the whole run.
//
// -json FILE writes the machine-readable perf trajectory
// (BENCH_pipeline.json): per-stage wall times and allocation counts, the
// compile-cache hit rates of every sweep-backed stage, the raw
// per-program sweep counts of RV#1/RV#2 when those experiments ran, and a
// validate_overhead record — a hot kernel compiled with and without the
// translation validator, whose wall-clock ratio pins the ≤2× overhead
// bound the validator is designed to.
//
// -sizes N1,N2,... runs the compile-time scaling sweep instead of the
// paper experiments: for each size it generates random functions with that
// many FP instructions (the workload.RandomSized knob), compiles them under
// bpc, and reports interval counts and wall-clock per phase-relevant size —
// the end-to-end view of the sublinear overlap/pressure query engine.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"prescount/internal/bankfile"
	"prescount/internal/cfg"
	"prescount/internal/compilecache"
	"prescount/internal/core"
	"prescount/internal/diskcache"
	"prescount/internal/experiments"
	"prescount/internal/ir"
	"prescount/internal/liveness"
	"prescount/internal/workload"
)

// stageRecord is one perf-trajectory entry of the -json output.
type stageRecord struct {
	// Name is the experiment stage ("rv1", "table6", ...).
	Name string `json:"name"`
	// WallNS is the stage wall time in nanoseconds; Wall is human-readable.
	WallNS int64  `json:"wall_ns"`
	Wall   string `json:"wall"`
	// Mallocs counts heap allocations performed during the stage.
	Mallocs uint64 `json:"mallocs"`
	// AllocBytes is the total heap bytes allocated during the stage
	// (runtime TotalAlloc delta); HeapLiveBytes is the live heap at stage
	// end. Together with the GC fields they make the JSON sensitive to the
	// zero-allocation compile path regressing: a pass that reverts to
	// per-compile maps shows up as alloc-byte and gc-cycle growth long
	// before wall time moves.
	AllocBytes    uint64 `json:"alloc_bytes"`
	HeapLiveBytes uint64 `json:"heap_live_bytes"`
	// GCCycles and GCPauseNS count collections that ran during the stage
	// and their cumulative stop-the-world pause.
	GCCycles  uint32 `json:"gc_cycles"`
	GCPauseNS uint64 `json:"gc_pause_ns"`
	// Compiles counts core.Compile invocations (cache hits included); only
	// present for sweep-backed stages, where it equals FullHits+FullMisses.
	Compiles int64 `json:"compiles,omitempty"`
	// AllocsPerCompile is Mallocs / Compiles.
	AllocsPerCompile float64 `json:"allocs_per_compile,omitempty"`
	// Cache is the stage's compile-cache counter delta with the derived
	// hit rates (absent when the stage ran uncached or compiles nothing).
	// On the shared run-wide cache the counters are this stage's own
	// lookups; the gauges (BytesRetained, entry counts) are the cache's
	// state at stage end.
	Cache         *compilecache.Stats `json:"cache,omitempty"`
	FullHitRate   float64             `json:"full_hit_rate,omitempty"`
	PrefixHitRate float64             `json:"prefix_hit_rate,omitempty"`
	AllocHitRate  float64             `json:"alloc_hit_rate,omitempty"`
}

// perfLog accumulates the -json perf trajectory.
type perfLog struct {
	Schema string        `json:"schema"`
	Stages []stageRecord `json:"stages"`
	// Sweeps holds the raw per-program counts keyed "bank-method" ->
	// program, per platform sweep that ran.
	Sweeps map[string]map[string]map[string]experiments.Counts `json:"sweeps,omitempty"`
	// Methods is the allocator-method comparison (the "methods" experiment):
	// per (suite, method) static metrics, cycles, cost scores and racer win
	// attribution.
	Methods *experiments.MethodComparison `json:"methods,omitempty"`
	// ValidateOverhead is the translation validator's relative cost on a
	// hot kernel (compile wall with Options.Validate over without); the
	// design bound is ratio ≤ 2.
	ValidateOverhead *overheadRecord `json:"validate_overhead,omitempty"`

	// cache is the run-wide shared compile cache (nil under -cache off);
	// stage() attributes per-stage hit counters to each stage by delta.
	cache *compilecache.Cache
}

// stage runs fn, timing it and recording its heap-allocation, GC and
// compile-cache activity.
func (p *perfLog) stage(name string, fn func()) {
	var before, after runtime.MemStats
	var cacheBefore compilecache.Stats
	if p.cache != nil {
		cacheBefore = p.cache.Stats()
	}
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	p.Stages = append(p.Stages, stageRecord{
		Name:          name,
		WallNS:        wall.Nanoseconds(),
		Wall:          wall.Round(time.Microsecond).String(),
		Mallocs:       after.Mallocs - before.Mallocs,
		AllocBytes:    after.TotalAlloc - before.TotalAlloc,
		HeapLiveBytes: after.HeapAlloc,
		GCCycles:      after.NumGC - before.NumGC,
		GCPauseNS:     after.PauseTotalNs - before.PauseTotalNs,
	})
	if p.cache != nil {
		p.attachCache(p.cache.Stats().Delta(cacheBefore))
	}
}

// attachCache annotates the most recent stage with its cache stats delta.
func (p *perfLog) attachCache(st compilecache.Stats) {
	if len(p.Stages) == 0 {
		return
	}
	rec := &p.Stages[len(p.Stages)-1]
	rec.Compiles = st.FullHits + st.FullMisses
	if rec.Compiles > 0 {
		rec.AllocsPerCompile = float64(rec.Mallocs) / float64(rec.Compiles)
		snap := st
		rec.Cache = &snap
		rec.FullHitRate = st.FullHitRate()
		rec.PrefixHitRate = st.PrefixHitRate()
		rec.AllocHitRate = st.AllocHitRate()
	}
}

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments: fig1,table1,fig10,table2,table3,fig11,table4,table5,table6,table7,methods,all")
	jsonOut := flag.String("json", "", "write the machine-readable perf trajectory (BENCH_pipeline.json) to this file")
	parallel := flag.Int("parallel", 0, "compile workers for the sweeps: 0 = GOMAXPROCS, 1 = serial")
	cacheMode := flag.String("cache", "on", "compile cache: on | off (off recompiles every (bank, method) point from scratch)")
	diskDir := flag.String("disk-cache", "", "directory for the persistent compile-result store layered under the run-wide cache (empty disables; requires -cache on)")
	diskBytes := flag.Int64("disk-cache-bytes", 1<<30, "on-disk store byte cap, mtime-LRU swept (0 = unlimited)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	sizes := flag.String("sizes", "", "comma-separated workload sizes: compile random functions of each size under bpc and report timings (skips the paper experiments)")
	flag.Parse()
	experiments.Workers = *parallel
	switch *cacheMode {
	case "on":
		experiments.DisableCache = false
	case "off":
		experiments.DisableCache = true
	default:
		check(fmt.Errorf("-cache: want on or off, got %q", *cacheMode))
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			check(f.Close())
		}()
	}
	if *sizes != "" {
		runSizes(*sizes)
		return
	}
	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	run := func(name string) bool { return all || want[name] }
	perf := &perfLog{Schema: "prescount-bench/5"}
	if !experiments.DisableCache {
		// One cache for the whole run: every stage reuses the entries of
		// the stages before it, and per-stage hit rates are delta-attributed
		// by perfLog.stage.
		perf.cache = compilecache.New()
		experiments.SharedCache = perf.cache
	}
	if *diskDir != "" {
		if perf.cache == nil {
			check(fmt.Errorf("-disk-cache requires -cache on"))
		}
		store, err := diskcache.Open(*diskDir, *diskBytes)
		check(err)
		// Close flushes the write-behind queue so this run's results are on
		// disk for the next one.
		defer store.Close()
		perf.cache.SetFullBacking(core.NewDiskBacking(store))
	}

	start := time.Now()
	if run("fig1") {
		section("Figure 1 — prevalence of bank conflicts (non, interleaved files)")
		perf.stage("fig1", func() {
			r, err := experiments.Fig1(workload.SPECfp(), true)
			check(err)
			fmt.Println("SPECfp (function-level units):")
			fmt.Println(r)
			r, err = experiments.Fig1(workload.CNN(), false)
			check(err)
			fmt.Println("CNN-KERNEL (kernel-level units):")
			fmt.Println(r)
		})
	}
	if run("table1") {
		section("Table I — suite characteristics")
		perf.stage("table1", func() {
			rows, err := experiments.Table1()
			check(err)
			fmt.Println(experiments.Table1String(rows))
		})
	}

	var rv1 *experiments.Sweep
	needRV1 := run("fig10") || run("table2") || run("table3")
	if needRV1 {
		rv1 = runSweepStage(perf, "rv1", experiments.RV1)
	}
	if run("fig10") {
		section("Figure 10 — Platform-RV#1 static conflicts (1024 regs)")
		fmt.Println(experiments.Fig10String(rv1))
	}
	if run("table2") {
		section("Table II — RV#1 combined conflicts and reductions (static)")
		fmt.Println(experiments.Table2String(experiments.Table2(rv1, experiments.StaticMetric, "")))
	}
	if run("table3") {
		section("Table III — RV#1 conflict reduction vs spill increment")
		fmt.Println(experiments.Table3String(rv1, experiments.Table3(rv1, experiments.StaticMetric)))
	}

	var rv2 *experiments.Sweep
	needRV2 := run("fig11") || run("table4") || run("table5")
	if needRV2 {
		rv2 = runSweepStage(perf, "rv2", experiments.RV2)
	}
	if run("fig11") {
		section("Figure 11 — Platform-RV#2 dynamic conflicts (32 regs)")
		fmt.Println(experiments.Fig11String(rv2))
	}
	if run("table4") {
		section("Table IV — RV#2 conflicts and reductions (static and dynamic)")
		rows := experiments.Table2(rv2, experiments.StaticMetric, "STATIC")
		rows = append(rows, experiments.Table2(rv2, experiments.DynamicMetric, "DYNAMIC")...)
		fmt.Println(experiments.Table2String(rows))
	}
	if run("table5") {
		section("Table V — RV#2 conflict reduction vs spill increment (static)")
		fmt.Println(experiments.Table3String(rv2, experiments.Table3(rv2, experiments.StaticMetric)))
	}

	if run("table6") {
		section("Table VI — Platform-DSA conflict ratios (dynamic)")
		perf.stage("table6", func() {
			rows, err := experiments.Table6()
			check(err)
			fmt.Println(experiments.Table6String(rows))
		})
	}
	if run("table7") {
		section("Table VII — Platform-DSA spills, copies and cycles (VLIW model)")
		perf.stage("table7", func() {
			rows, err := experiments.Table7()
			check(err)
			fmt.Println(experiments.Table7String(rows))
		})
	}

	if run("methods") {
		section("Allocator portfolio — per-method comparison (RV#2, 2 banks)")
		perf.stage("methods", func() {
			mc, err := experiments.CompareMethods(
				[]*workload.Suite{workload.SPECfp(), workload.CNN(), workload.DSAOP()},
				bankfile.RV2(2))
			check(err)
			perf.Methods = mc
			fmt.Println(experiments.MethodCompareString(mc))
		})
	}

	// Headline numbers (abstract): geomean conflict reduction of bpc over
	// bcr per suite on the rich-bank platform.
	if run("headline") || all {
		section("Headline — bpc vs bcr geomean reduction (RV#1, per suite)")
		if rv1 == nil {
			rv1 = runSweepStage(perf, "rv1", experiments.RV1)
		}
		for _, bank := range rv1.Banks {
			g := rv1.GeomeanReduction(bank, core.MethodBPC, core.MethodBCR, experiments.StaticMetric)
			fmt.Printf("%d banks: bpc reduces remaining conflicts vs bcr by %.2f%% (geomean)\n", bank, 100*g)
		}
		fmt.Println()
	}

	if *jsonOut != "" {
		perf.ValidateOverhead = measureValidateOverhead()
		fmt.Printf("[validate] overhead on hot kernel: plain=%v validated=%v ratio=%.2fx\n\n",
			time.Duration(perf.ValidateOverhead.PlainNS).Round(time.Microsecond),
			time.Duration(perf.ValidateOverhead.ValidatedNS).Round(time.Microsecond),
			perf.ValidateOverhead.Ratio)
		if rv1 != nil || rv2 != nil {
			perf.Sweeps = map[string]map[string]map[string]experiments.Counts{}
			if rv1 != nil {
				perf.Sweeps["rv1"] = sweepJSON(rv1)
			}
			if rv2 != nil {
				perf.Sweeps["rv2"] = sweepJSON(rv2)
			}
		}
		data, err := json.MarshalIndent(perf, "", "  ")
		check(err)
		check(os.WriteFile(*jsonOut, data, 0o644))
		fmt.Fprintf(os.Stderr, "benchtab: wrote %s\n", *jsonOut)
	}
	fmt.Fprintf(os.Stderr, "benchtab: done in %v\n", time.Since(start))
}

// overheadRecord is the validate_overhead entry of the -json output: one
// hot kernel compiled with and without the translation validator.
type overheadRecord struct {
	PlainNS     int64   `json:"plain_ns"`
	ValidatedNS int64   `json:"validated_ns"`
	Ratio       float64 `json:"ratio"`
}

// measureValidateOverhead compiles the largest CNN kernel with and without
// the translation validator and reports the wall ratio. Both compiles run
// uncached — validated compiles always bypass the compile cache, so a
// cached plain baseline would overstate the ratio — and each mode takes
// the minimum of three repetitions to damp scheduler noise.
func measureValidateOverhead() *overheadRecord {
	var hot *ir.Func
	for _, p := range workload.CNN().Programs {
		for _, f := range p.Funcs() {
			if hot == nil || f.NumInstrs() > hot.NumInstrs() {
				hot = f
			}
		}
	}
	best := func(validate bool) time.Duration {
		min := time.Hour
		for i := 0; i < 3; i++ {
			start := time.Now()
			_, err := core.Compile(hot.Clone(), core.Options{
				File: bankfile.RV2(2), Method: core.MethodBPC, Validate: validate,
			})
			check(err)
			if d := time.Since(start); d < min {
				min = d
			}
		}
		return min
	}
	plain, validated := best(false), best(true)
	return &overheadRecord{
		PlainNS:     plain.Nanoseconds(),
		ValidatedNS: validated.Nanoseconds(),
		Ratio:       float64(validated) / float64(plain),
	}
}

// runSweepStage runs one platform sweep as a timed perf stage and prints
// its compile-cache footer.
func runSweepStage(perf *perfLog, name string, sweep func() (*experiments.Sweep, error)) *experiments.Sweep {
	var sw *experiments.Sweep
	perf.stage(name, func() {
		var err error
		sw, err = sweep()
		check(err)
	})
	if line := sw.CacheStatsString(); line != "" {
		fmt.Printf("[%s] %s\n\n", name, line)
	}
	return sw
}

// runSizes is the -sizes sweep: per requested size, generate a few random
// functions at that size, compile each under bpc, and print a table of
// interval counts and compile wall-clock. The single-function compile is
// dominated by the overlap/pressure query engine once sizes reach the
// thousands, so this sweep is the quickest way to see its scaling. Each
// function is compiled three times — plain, under the phase-boundary
// verifier, and under the translation validator — and the verify-ovh and
// validate-ovh columns report the relative cost of core.Options.VerifyEach
// and core.Options.Validate; the plain compile is the baseline the
// zero-cost contract is measured against.
func runSizes(spec string) {
	const seedsPerSize = 3
	file := bankfile.RV1(2)
	section("Compile-time scaling sweep (random functions, bpc, 2-bank RV#1)")
	fmt.Printf("%8s %8s %10s %10s %12s %10s %10s %12s %12s\n", "size", "instrs", "intervals", "conflicts", "compile", "per-intvl", "verify-ovh", "validate-ovh", "allocs/comp")
	for _, field := range strings.Split(spec, ",") {
		size, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil {
			check(fmt.Errorf("-sizes: %w", err))
		}
		var instrs, intervals, conflicts int
		var elapsed, verified, validated time.Duration
		var mallocs uint64
		for seed := int64(0); seed < seedsPerSize; seed++ {
			f := workload.RandomSized(seed, size)
			lv := liveness.Compute(f, cfg.Compute(f))
			for _, iv := range lv.Intervals {
				if iv != nil && !iv.Empty() {
					intervals++
				}
			}
			instrs += f.NumInstrs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			res, err := core.Compile(f, core.Options{File: file, Method: core.MethodBPC})
			check(err)
			elapsed += time.Since(start)
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
			conflicts += res.Report.StaticConflicts
			start = time.Now()
			_, err = core.Compile(f, core.Options{File: file, Method: core.MethodBPC, VerifyEach: true})
			check(err)
			verified += time.Since(start)
			start = time.Now()
			_, err = core.Compile(f, core.Options{File: file, Method: core.MethodBPC, Validate: true})
			check(err)
			validated += time.Since(start)
		}
		fmt.Printf("%8d %8d %10d %10d %12v %10s %9.1f%% %11.1f%% %12d\n",
			size, instrs/seedsPerSize, intervals/seedsPerSize, conflicts/seedsPerSize,
			(elapsed / seedsPerSize).Round(time.Microsecond),
			fmt.Sprintf("%.1fns", float64(elapsed.Nanoseconds())/float64(maxI(intervals, 1))),
			100*(float64(verified)/float64(maxI64(elapsed, 1))-1),
			100*(float64(validated)/float64(maxI64(elapsed, 1))-1),
			mallocs/seedsPerSize,
		)
	}
}

func maxI64(a time.Duration, b int64) int64 {
	if int64(a) > b {
		return int64(a)
	}
	return b
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// sweepJSON converts a sweep into a JSON-friendly structure keyed
// "bank-method" -> program -> counts.
func sweepJSON(sw *experiments.Sweep) map[string]map[string]experiments.Counts {
	out := map[string]map[string]experiments.Counts{}
	for _, bank := range sw.Banks {
		for _, m := range experiments.Methods {
			key := fmt.Sprintf("%d-%s", bank, m)
			out[key] = sw.Get(bank, m)
		}
	}
	return out
}

func section(title string) {
	fmt.Println("=" + strings.Repeat("=", len(title)+1))
	fmt.Println("= " + title)
	fmt.Println("=" + strings.Repeat("=", len(title)+1))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}
