package main

import (
	"fmt"
	"os"
	"time"

	"prescount"
	"prescount/internal/analysis"
	"prescount/internal/assign"
	"prescount/internal/coalesce"
	"prescount/internal/compilecache"
	"prescount/internal/conflict"
	"prescount/internal/core"
	"prescount/internal/experiments"
	"prescount/internal/ir"
	"prescount/internal/regalloc"
	"prescount/internal/renumber"
	"prescount/internal/sched"
	"prescount/internal/scratch"
	"prescount/internal/sdg"
	"prescount/internal/sim"
)

// The traced runs replay core's Figure-4 sequence through each phase's
// exported entry point, with a span around every call. The CFG, liveness
// and RCG fills are forced just before their first consumer so their cost
// lands in their own layer. Every replayed output is compared with what
// prescount.Compile produces for the same input, so the trace cannot drift
// from the code the untraced runs time.

// replayed is a replayed compile's output (or a cached snapshot of part of
// one, mirroring core's prefix and alloc snapshots).
type replayed struct {
	fn     *ir.Func
	report *conflict.Report
	alloc  *regalloc.Result
}

// layerCounts is the work each layer did, counted where it happened.
type layerCounts struct {
	reordered, sdgCopies, coalesced, forced int64
	spilled, evictions, simSteps            int64
	instrsIn, instrsOut                     int64
}

// replayer records spans and counts for the replayed phases.
type replayer struct {
	rec *recorder
	n   layerCounts
}

func (r *replayer) clone(f *ir.Func) *ir.Func {
	var c *ir.Func
	r.rec.do("ir.clone", func() { c = f.Clone() })
	return c
}

// prefix replays core.runPrefix: coalescing, SDG splitting, scheduling.
func (r *replayer) prefix(work *ir.Func, ac *analysis.Cache, opts core.Options) {
	rec := r.rec
	if !opts.DisableCoalesce {
		rec.do("cfg", func() { ac.CFG() })
		rec.do("liveness", func() { ac.Liveness() })
		var st coalesce.Stats
		rec.do("coalesce", func() { st = coalesce.RunCached(work, ac) })
		r.n.coalesced += int64(st.Coalesced)
	}
	if opts.Subgroups {
		var st sdg.Stats
		rec.do("sdg", func() { st = sdg.Split(work, sdg.Options{MaxGroup: opts.SDGMaxGroup}) })
		ac.RetainCFG()
		r.n.sdgCopies += int64(st.CopiesInserted)
	}
	if !opts.DisableSched {
		var st sched.Stats
		rec.do("sched", func() { st = sched.Run(work) })
		ac.RetainCFG()
		r.n.reordered += int64(st.Reordered)
	}
}

// allocate replays core.runAlloc: RCG bank assignment (bpc) and register
// allocation. Only the greedy allocator's methods are replayed.
func (r *replayer) allocate(work *ir.Func, ac *analysis.Cache, opts core.Options, out *replayed) error {
	if opts.LinearScan || opts.Method == core.MethodBinpack || opts.Method == core.MethodColoring {
		return fmt.Errorf("replay: method %v is not replayed", opts.Method)
	}
	rec := r.rec
	raOpts := regalloc.Options{Cfg: opts.File, Method: opts.Method, Analyses: ac}
	rec.do("cfg", func() { ac.CFG() })
	rec.do("liveness", func() { ac.Liveness() })
	if opts.Method == core.MethodBPC {
		rec.do("rcg", func() { ac.RCG() })
		var ares *assign.Result
		rec.do("assign", func() {
			ares = assign.PresCount(work, ac.RCG(), ac.Liveness(), opts.File.Normalize(), assign.Options{
				THRES:            opts.THRES,
				DisablePressure:  opts.DisablePressure,
				DisableFreeHints: opts.DisableFreeHints,
			})
		})
		raOpts.BankOf = ares.BankOf
		raOpts.FreeHints = ares.FreeHints
		r.n.forced += int64(len(ares.Forced))
	}
	if opts.Subgroups {
		rec.do("sdg", func() { raOpts.SubgroupGroups = sdg.Build(work).GroupOf() })
	}
	if raOpts.Method == core.MethodBRC {
		raOpts.Method = core.MethodNon
	}
	var err error
	rec.do("regalloc", func() { out.alloc, err = regalloc.Run(work, raOpts) })
	if err != nil {
		return err
	}
	r.n.spilled += int64(out.alloc.SpilledVRegs)
	r.n.evictions += int64(out.alloc.Evictions)
	return nil
}

// post replays core.runPost: renumbering (brc) and conflict analysis.
func (r *replayer) post(work *ir.Func, ac *analysis.Cache, opts core.Options, out *replayed) {
	rec := r.rec
	rec.do("cfg", func() { ac.CFG() })
	if opts.Method == core.MethodBRC {
		rec.do("renumber", func() { renumber.Run(work, opts.File, ac.CFG()) })
		ac.RetainCFG()
	}
	rec.do("conflict", func() { out.report = conflict.AnalyzeWith(work, opts.File, ac.CFG()) })
	out.fn = work
}

// compile replays an uncached core.Compile of f.
func (r *replayer) compile(f *ir.Func, opts core.Options) (*replayed, error) {
	var err error
	r.rec.do("ir.verify", func() { err = f.Verify() })
	if err != nil {
		return nil, err
	}
	work := r.clone(f)
	ar := scratch.Get()
	defer scratch.Put(ar)
	ac := analysis.NewWithArena(work, ar)
	out := &replayed{}
	r.prefix(work, ac, opts)
	if err := r.allocate(work, ac, opts, out); err != nil {
		return nil, err
	}
	r.post(work, ac, opts, out)
	return out, nil
}

// compileCached replays core's memoized path over opts.Cache, which holds
// replayed snapshots: the full layer, the prefix layer and, for the bank-oblivious
// methods, the alloc layer. Each cache call is a compilecache span, so the
// layer's self time is its lookup and bookkeeping.
func (r *replayer) compileCached(f *ir.Func, opts core.Options) (*replayed, error) {
	cache := opts.Cache
	var err error
	r.rec.do("ir.verify", func() { err = f.Verify() })
	if err != nil {
		return nil, err
	}
	var v any
	r.rec.do("compilecache", func() {
		fp := f.Fingerprint()
		v, _, err = cache.Full(compilecache.Key{Fingerprint: fp, Digest: opts.FullDigest()}, func() (any, int64, error) {
			res, err := r.viaPrefix(f, fp, opts, cache)
			return res, 0, err
		})
	})
	if err != nil {
		return nil, err
	}
	res := v.(*replayed)
	if res.fn.Name != f.Name {
		cp := *res
		cp.fn = r.clone(res.fn)
		cp.fn.Name = f.Name
		res = &cp
	}
	return res, nil
}

func (r *replayer) viaPrefix(f *ir.Func, fp ir.Fingerprint, opts core.Options, cache *compilecache.Cache) (*replayed, error) {
	var v any
	var err error
	r.rec.do("compilecache", func() {
		v, _, err = cache.Prefix(compilecache.Key{Fingerprint: fp, Digest: opts.PrefixDigest()}, func() (any, int64, error) {
			work := r.clone(f)
			ar := scratch.Get()
			defer scratch.Put(ar)
			r.prefix(work, analysis.NewWithArena(work, ar), opts)
			return &replayed{fn: work}, 0, nil
		})
	})
	if err != nil {
		return nil, err
	}
	snap := v.(*replayed)
	if (opts.Method == core.MethodNon || opts.Method == core.MethodBRC) && !opts.Subgroups {
		return r.viaAlloc(f, fp, opts, cache, snap)
	}
	work := r.clone(snap.fn)
	work.Name = f.Name
	ar := scratch.Get()
	defer scratch.Put(ar)
	ac := analysis.NewWithArena(work, ar)
	res := &replayed{}
	if err := r.allocate(work, ac, opts, res); err != nil {
		return nil, err
	}
	r.post(work, ac, opts, res)
	return res, nil
}

func (r *replayer) viaAlloc(f *ir.Func, fp ir.Fingerprint, opts core.Options, cache *compilecache.Cache, psnap *replayed) (*replayed, error) {
	var v any
	var err error
	r.rec.do("compilecache", func() {
		v, _, err = cache.Alloc(compilecache.Key{Fingerprint: fp, Digest: opts.AllocDigest()}, func() (any, int64, error) {
			work := r.clone(psnap.fn)
			ar := scratch.Get()
			defer scratch.Put(ar)
			a := &replayed{}
			if err := r.allocate(work, analysis.NewWithArena(work, ar), opts, a); err != nil {
				return nil, 0, err
			}
			a.fn = work
			return a, 0, nil
		})
	})
	if err != nil {
		return nil, err
	}
	asnap := v.(*replayed)
	res := &replayed{alloc: asnap.alloc}
	work := asnap.fn
	if opts.Method == core.MethodBRC || work.Name != f.Name {
		work = r.clone(work)
		work.Name = f.Name
	}
	ar := scratch.Get()
	defer scratch.Put(ar)
	r.post(work, analysis.NewWithArena(work, ar), opts, res)
	return res, nil
}

// sameOutput reports whether a replayed compile printed and reported
// exactly what prescount.Compile did.
func sameOutput(rep *replayed, res *prescount.Result) bool {
	return *rep.report == *res.Report && prescount.Print(rep.fn) == prescount.Print(res.Func)
}

// pipelineLayers turns spans and counts into the per-layer metrics: self
// times as mean milliseconds per op, counts as totals over one pass.
func pipelineLayers(m map[string]metric, spans []span, ops int64, n layerCounts, overhead float64) {
	self, _ := layerTimes(spans)
	per := func(name string) float64 { return ms(self[name]) / float64(ops) }
	for _, l := range []string{"sched", "sdg", "coalesce", "cfg", "liveness", "rcg", "assign", "regalloc",
		"renumber", "conflict", "sim", "compilecache"} {
		m[l+".self_ms"] = metric{per(l), "ms"}
	}
	m["ir.clone_ms"] = metric{per("ir.clone"), "ms"}
	m["ir.verify_ms"] = metric{per("ir.verify"), "ms"}
	m["core.unattributed_ms"] = metric{per("op"), "ms"}
	m["sched.reordered"] = metric{float64(n.reordered), "count"}
	m["sdg.copies_inserted"] = metric{float64(n.sdgCopies), "count"}
	m["coalesce.coalesced"] = metric{float64(n.coalesced), "count"}
	m["assign.forced"] = metric{float64(n.forced), "count"}
	m["regalloc.spilled_vregs"] = metric{float64(n.spilled), "count"}
	m["regalloc.evictions"] = metric{float64(n.evictions), "count"}
	m["sim.steps"] = metric{float64(n.simSteps), "count"}
	m["ir.instrs_in"] = metric{float64(n.instrsIn), "count"}
	m["ir.instrs_out"] = metric{float64(n.instrsOut), "count"}
	m["trace.overhead_ratio"] = metric{overhead, "ratio"}
}

// traceBatchCold times prescount.Compile and the traced replay of the same
// function back to back, op by op, in whole passes over the shuffled
// inputs; the replay's output must equal Compile's on every function.
func traceBatchCold(cfg config, funcs []batchFunc) (*outcome, error) {
	out := newOutcome()
	t0 := time.Now()
	r := &replayer{rec: newRecorder(t0)}
	var compileTime, replayTime time.Duration
	var onePass layerCounts
	passes := 0
	for passes == 0 || time.Since(t0) < cfg.seconds {
		for _, bf := range funcs {
			out.attempted++
			t := time.Now()
			res, err := prescount.Compile(bf.fn, bf.opts)
			compileTime += time.Since(t)
			r.rec.nextOp(out.attempted)
			t = time.Now()
			root := r.rec.begin("op")
			rep, rerr := r.compile(bf.fn, bf.opts)
			r.rec.end(root)
			replayTime += time.Since(t)
			switch {
			case err != nil || rerr != nil:
				out.failed++
				out.problem("%s: compile %v, replay %v", bf.key, err, rerr)
				continue
			case passes == 0 && !sameOutput(rep, res):
				out.failed++
				out.problem("%s: replay output differs from prescount.Compile", bf.key)
			case *rep.report != *res.Report:
				out.failed++
				out.problem("%s: replay report differs from prescount.Compile", bf.key)
			}
			if passes == 0 {
				r.n.instrsIn += int64(bf.fn.NumInstrs())
				r.n.instrsOut += int64(rep.report.Instrs)
			}
		}
		if passes == 0 {
			onePass = r.n
		}
		passes++
	}
	fmt.Fprintf(os.Stderr, "perfbench: batch-cold traced: %d ops in %d passes, %d failed\n", out.attempted, passes, out.failed)
	pipelineLayers(out.metrics, r.rec.spans, out.attempted, onePass, float64(replayTime)/float64(compileTime))
	fillZeroLayers(out.metrics)
	return out, writeSpans(cfg.traceOut, r.rec.spans)
}

// traceEvalSweep measures one experiments.RV2 pass for the compile cache's
// counters, then alternates serial untraced and traced passes over the
// sweep's cells in RunSweep's job order: prescount.Compile through a fresh
// cache, against the replay of core's cached path through another, each
// followed by the simulation of hot functions that CompileProgram runs.
func traceEvalSweep(cfg config, suites []*prescount.Suite) (*outcome, error) {
	out := newOutcome()
	experiments.Workers = libraryWorkers
	cache := compilecache.New()
	experiments.SharedCache = cache
	_, err := experiments.RV2()
	experiments.SharedCache = nil
	if err != nil {
		return nil, err
	}
	cs := cache.Stats()
	cells := sweepCells(suites)
	t0 := time.Now()
	r := &replayer{rec: newRecorder(t0)}
	var compileTime, replayTime time.Duration
	var onePass layerCounts
	passes := 0
	for passes == 0 || time.Since(t0) < cfg.seconds {
		plain, traced := compilecache.New(), compilecache.New()
		results := make([]*prescount.Result, len(cells))
		t := time.Now()
		for i, c := range cells {
			opts := sweepOpts(c.bank, c.m, plain)
			res, err := prescount.Compile(c.fn, opts)
			if err == nil && c.prog.IsHot(c.fn.Name) {
				_, err = prescount.Simulate(res.Func, prescount.SimOptions{File: opts.File, MemSize: c.prog.MemSize})
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.key, err)
			}
			results[i] = res
		}
		compileTime += time.Since(t)
		reps := make([]*replayed, len(cells))
		t = time.Now()
		for i, c := range cells {
			out.attempted++
			opts := sweepOpts(c.bank, c.m, traced)
			r.rec.nextOp(out.attempted)
			root := r.rec.begin("op")
			rep, err := r.compileCached(c.fn, opts)
			if err == nil && c.prog.IsHot(c.fn.Name) {
				var sr *sim.Result
				r.rec.do("sim", func() {
					sr, err = sim.Run(rep.fn, sim.Options{File: opts.File, MemSize: c.prog.MemSize})
				})
				if err == nil {
					r.n.simSteps += sr.Steps
				}
			}
			r.rec.end(root)
			if err != nil {
				out.failed++
				out.problem("%s: replay: %v", c.key, err)
				continue
			}
			reps[i] = rep
		}
		replayTime += time.Since(t)
		for i, c := range cells {
			switch {
			case reps[i] == nil:
			case passes == 0 && !sameOutput(reps[i], results[i]):
				out.failed++
				out.problem("%s: replay output differs from prescount.Compile", c.key)
			case *reps[i].report != *results[i].Report:
				out.failed++
				out.problem("%s: replay report differs from prescount.Compile", c.key)
			}
			if passes == 0 && reps[i] != nil {
				r.n.instrsIn += int64(c.fn.NumInstrs())
				r.n.instrsOut += int64(reps[i].report.Instrs)
			}
		}
		if passes == 0 {
			onePass = r.n
		}
		passes++
	}
	fmt.Fprintf(os.Stderr, "perfbench: eval-sweep traced: %d ops in %d passes, %d failed\n", out.attempted, passes, out.failed)
	m := out.metrics
	pipelineLayers(m, r.rec.spans, out.attempted, onePass, float64(replayTime)/float64(compileTime))
	m["compilecache.full_hit_ratio"] = metric{cs.FullHitRate(), "ratio"}
	m["compilecache.prefix_hit_ratio"] = metric{cs.PrefixHitRate(), "ratio"}
	m["compilecache.alloc_hit_ratio"] = metric{cs.AllocHitRate(), "ratio"}
	m["compilecache.retained_mb"] = metric{float64(cs.BytesRetained) / (1 << 20), "MiB"}
	m["compilecache.evictions"] = metric{float64(cs.Evictions), "count"}
	fillZeroLayers(m)
	return out, writeSpans(cfg.traceOut, r.rec.spans)
}

// layerMetrics are the per-layer metrics every traced run reports, with
// their units; a layer the workload does not exercise reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"sched.self_ms", "ms"}, {"sdg.self_ms", "ms"}, {"coalesce.self_ms", "ms"},
	{"cfg.self_ms", "ms"}, {"liveness.self_ms", "ms"}, {"rcg.self_ms", "ms"},
	{"assign.self_ms", "ms"}, {"regalloc.self_ms", "ms"}, {"renumber.self_ms", "ms"},
	{"conflict.self_ms", "ms"}, {"sim.self_ms", "ms"}, {"compilecache.self_ms", "ms"},
	{"ir.clone_ms", "ms"}, {"ir.verify_ms", "ms"}, {"core.unattributed_ms", "ms"},
	{"sched.reordered", "count"}, {"sdg.copies_inserted", "count"}, {"coalesce.coalesced", "count"},
	{"assign.forced", "count"}, {"regalloc.spilled_vregs", "count"}, {"regalloc.evictions", "count"},
	{"sim.steps", "count"}, {"ir.instrs_in", "count"}, {"ir.instrs_out", "count"},
	{"compilecache.full_hit_ratio", "ratio"}, {"compilecache.prefix_hit_ratio", "ratio"},
	{"compilecache.alloc_hit_ratio", "ratio"}, {"compilecache.retained_mb", "MiB"},
	{"compilecache.evictions", "count"},
	{"server.total_ms", "ms"}, {"server.parse_ms", "ms"}, {"server.compile_ms", "ms"},
	{"server.admit_decode_ms", "ms"}, {"server.transport_ms", "ms"},
	{"server.rejected_429", "count"}, {"server.spec_compiled", "count"},
	{"server.spec_warm_hits", "count"}, {"server.spec_useful_ratio", "ratio"},
	{"server.spec_cancelled", "count"}, {"server.spec_dropped", "count"},
	{"router.hop_ms", "ms"}, {"router.retries", "count"},
	{"trace.overhead_ratio", "ratio"},
}

func fillZeroLayers(m map[string]metric) {
	for _, l := range layerMetrics {
		if _, ok := m[l.name]; !ok {
			m[l.name] = metric{0, l.unit}
		}
	}
}
