package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"prescount"
	"prescount/internal/compilecache"
	"prescount/internal/experiments"
)

// setupReps is how often the library workloads generate their inputs; the
// median of the repetitions is setup_s.
const setupReps = 11

// libraryWorkers bounds the compile goroutines of the library workloads:
// one process drives at most two cores.
const libraryWorkers = 2

// batchFunc is one op of batch-cold: a function and the configuration the
// paper evaluates its suite under.
type batchFunc struct {
	key  string // suite/program/function, unique
	prog *prescount.Program
	fn   *prescount.Func
	opts prescount.Options
	vliw bool
}

// batchInputs generates every function of SPECfp, CNN-KERNEL and DSA-OP
// with its PresCount configuration and shuffles them with the seed.
func batchInputs(seed int64) []batchFunc {
	var out []batchFunc
	for _, s := range []*prescount.Suite{prescount.SuiteSPECfp(), prescount.SuiteCNN(), prescount.SuiteDSAOP()} {
		opts := prescount.Options{File: prescount.RV2(4), Method: prescount.MethodBPC}
		dsa := s.Name == "DSA-OP"
		if dsa {
			opts = prescount.Options{File: prescount.DSA(1024), Method: prescount.MethodBPC, Subgroups: true}
		}
		for _, p := range s.Programs {
			for i, f := range p.Funcs() {
				key := fmt.Sprintf("%s/%s/%03d/%s", s.Name, p.Name, i, f.Name)
				out = append(out, batchFunc{key: key, prog: p, fn: f, opts: opts, vliw: dsa})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func runBatchCold(cfg config) (*outcome, error) {
	setup, funcs := timeSetup(setupReps, func() []batchFunc { return batchInputs(cfg.seed) })
	if cfg.trace {
		return traceBatchCold(cfg, funcs)
	}
	out := newOutcome()
	lat := make([]time.Duration, 0, 1<<15)
	first := make([]*prescount.Result, len(funcs))
	start := time.Now()
	passes := 0
	// Whole passes only, so every function weighs the same in the latency
	// percentiles whatever the machine speed.
	for passes == 0 || time.Since(start) < cfg.seconds {
		for i := range funcs {
			t := time.Now()
			res, err := prescount.Compile(funcs[i].fn, funcs[i].opts)
			lat = append(lat, time.Since(t))
			out.attempted++
			switch {
			case err != nil:
				out.failed++
				out.problem("%s: %v", funcs[i].key, err)
			case passes == 0:
				first[i] = res
			case first[i] == nil || *res.Report != *first[i].Report:
				out.failed++
				out.problem("%s: pass %d report differs from pass 1", funcs[i].key, passes+1)
			}
		}
		passes++
	}
	elapsed := time.Since(start)
	checks := make([]check, len(funcs))
	for i, bf := range funcs {
		checks[i] = check{key: bf.key, input: bf.fn, res: first[i], memSize: bf.prog.MemSize,
			file: bf.opts.File, vliw: bf.vliw, hot: bf.prog.IsHot(bf.fn.Name)}
	}
	q, digest, bad := checkOutputs(checks)
	out.failed += int64(bad * passes)
	out.quality, out.digest = q, digest

	p50, tail, at := percentiles(lat)
	for _, w := range checkGaps(cfg.workload, lat) {
		fmt.Fprintln(os.Stderr, "perfbench: WARN:", w)
	}
	rss, err := peakRSSMiB("self")
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: batch-cold: %d ops in %d passes over %.2fs; tail is rank %d of %d\n",
		len(lat), passes, elapsed.Seconds(), at+1, len(lat))
	m := out.metrics
	m["setup_s"] = metric{setup.Seconds(), "s"}
	m["throughput_per_s"] = metric{float64(len(lat)) / elapsed.Seconds(), "1/s"}
	m["latency_p50_ms"] = metric{ms(p50), "ms"}
	m["latency_p99_ms"] = metric{ms(tail), "ms"}
	m["peak_rss_mb"] = metric{rss, "MiB"}
	q.put(m)
	return out, nil
}

// check is one compiled function to verify against the interpreter.
type check struct {
	key     string
	input   *prescount.Func
	res     *prescount.Result
	memSize int
	file    prescount.RegisterFile
	vliw    bool
	hot     bool
}

// checkOutputs simulates each distinct allocated function and its
// unallocated input and compares their memory checksums — the oracle behind
// Options.VerifySemantics. It returns the quality counts over every check
// (dynamic conflicts and cycles of hot functions only), a SHA-256 over the
// output bytes in key order, and the number of failed checks.
func checkOutputs(checks []check) (quality, string, int) {
	sort.Slice(checks, func(i, j int) bool { return checks[i].key < checks[j].key })
	type simKey struct {
		text    string
		file    prescount.RegisterFile
		vliw    bool
		memSize int
	}
	sims := map[simKey]*prescount.SimResult{}
	inputSums := map[*prescount.Func]uint64{}
	h := sha256.New()
	var q quality
	bad := 0
	for _, c := range checks {
		if c.res == nil {
			bad++
			continue
		}
		text := prescount.Print(c.res.Func)
		fmt.Fprintf(h, "%s\n%s\n", c.key, text)
		r := c.res.Report
		q.Static += int64(r.StaticConflicts)
		q.Spills += int64(r.SpillStores + r.SpillReloads)
		q.Copies += int64(r.Copies)
		q.Instrs += int64(r.Instrs)

		k := simKey{text, c.file, c.vliw, c.memSize}
		sr, ok := sims[k]
		if !ok {
			var err error
			sr, err = prescount.Simulate(c.res.Func, prescount.SimOptions{File: c.file, MemSize: c.memSize, VLIW: c.vliw})
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: FAIL: %s: simulating output: %v\n", c.key, err)
				bad++
				continue
			}
			sims[k] = sr
		}
		want, ok := inputSums[c.input]
		if !ok {
			in, err := prescount.Simulate(c.input, prescount.SimOptions{MemSize: c.memSize})
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: FAIL: %s: simulating input: %v\n", c.key, err)
				bad++
				continue
			}
			want = in.MemChecksum
			inputSums[c.input] = want
		}
		if sr.MemChecksum != want {
			fmt.Fprintf(os.Stderr, "perfbench: FAIL: %s: allocation changed the memory checksum\n", c.key)
			bad++
			continue
		}
		if c.hot {
			q.Dyn += sr.DynamicConflicts
			q.Cycles += sr.Cycles
		}
	}
	return q, hex.EncodeToString(h.Sum(nil)), bad
}

// sweepInputs generates the RV#2 suites the sweep compiles, for the
// post-run checks.
func sweepInputs() []*prescount.Suite {
	return []*prescount.Suite{prescount.SuiteSPECfp(), prescount.SuiteCNN()}
}

// sweepBanks and sweepRegs are Platform-RV#2 as experiments.RV2 sweeps it.
var sweepBanks = []int{2, 4}

const sweepRegs = 32

// sweepOpts is the compile configuration of one sweep cell, as
// experiments.RunSweep builds it.
func sweepOpts(bank int, m prescount.Method, cache *compilecache.Cache) prescount.Options {
	return prescount.Options{
		File:   prescount.RegisterFile{NumRegs: sweepRegs, NumBanks: bank, NumSubgroups: 1, ReadPorts: 1},
		Method: m, Cache: cache,
	}
}

// sweepCell is one function compile of the RV#2 sweep.
type sweepCell struct {
	key  string
	prog *prescount.Program
	fn   *prescount.Func
	bank int
	m    prescount.Method
}

// sweepCells lists the sweep's compiles in experiments.RunSweep's job order.
func sweepCells(suites []*prescount.Suite) []sweepCell {
	var cells []sweepCell
	for _, bank := range sweepBanks {
		for _, m := range experiments.Methods {
			for _, s := range suites {
				for _, p := range s.Programs {
					for i, f := range p.Funcs() {
						key := fmt.Sprintf("%d/%s/%s/%s/%03d/%s", bank, m, s.Name, p.Name, i, f.Name)
						cells = append(cells, sweepCell{key, p, f, bank, m})
					}
				}
			}
		}
	}
	return cells
}

// sweepQuality sums one sweep's counts over every cell and program.
func sweepQuality(sw *experiments.Sweep) (q quality, funcs int64) {
	for _, bank := range sw.Banks {
		for _, m := range experiments.Methods {
			for _, c := range sw.Get(bank, m) {
				q.Static += int64(c.Static)
				q.Dyn += c.Dynamic
				q.Spills += int64(c.SpillInstrs)
				q.Copies += int64(c.Copies)
				q.Cycles += c.Cycles
				q.Instrs += int64(c.Instrs)
				funcs += int64(c.Funcs)
			}
		}
	}
	return q, funcs
}

func runEvalSweep(cfg config) (*outcome, error) {
	setup, suites := timeSetup(setupReps, sweepInputs)
	if cfg.trace {
		return traceEvalSweep(cfg, suites)
	}
	opsPerPass := int64(0)
	for _, s := range suites {
		for _, p := range s.Programs {
			opsPerPass += int64(p.NumFuncs() * len(sweepBanks) * len(experiments.Methods))
		}
	}
	experiments.Workers = libraryWorkers
	defer func() { experiments.SharedCache = nil }()
	out := newOutcome()
	var passTimes []time.Duration
	var firstQ quality
	var cache *compilecache.Cache
	start := time.Now()
	for len(passTimes) == 0 || time.Since(start) < cfg.seconds {
		// A fresh cache per pass, as benchtab runs the sweep; the pass's
		// cells are checked through the last pass's cache afterwards.
		cache = compilecache.New()
		experiments.SharedCache = cache
		t := time.Now()
		sw, err := experiments.RV2()
		passTimes = append(passTimes, time.Since(t))
		out.attempted += opsPerPass
		if err != nil {
			out.failed += opsPerPass
			out.problem("pass %d: %v", len(passTimes), err)
			continue
		}
		q, n := sweepQuality(sw)
		if n != opsPerPass {
			out.problem("pass %d compiled %d functions, want %d", len(passTimes), n, opsPerPass)
		}
		if len(passTimes) == 1 {
			firstQ = q
		} else if q != firstQ {
			out.failed += opsPerPass
			out.problem("pass %d counts %+v differ from pass 1 %+v", len(passTimes), q, firstQ)
		}
	}
	elapsed := time.Since(start)
	passes := len(passTimes)

	before := cache.Stats()
	var checks []check
	for _, c := range sweepCells(suites) {
		opts := sweepOpts(c.bank, c.m, cache)
		res, err := prescount.Compile(c.fn, opts)
		if err != nil {
			out.problem("%s: %v", c.key, err)
		}
		checks = append(checks, check{key: c.key, input: c.fn, res: res, memSize: c.prog.MemSize,
			file: opts.File, hot: c.prog.IsHot(c.fn.Name)})
	}
	if d := cache.Stats().Delta(before); d.FullMisses > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: eval-sweep: %d of %d checked cells missed the sweep's cache\n",
			d.FullMisses, d.FullMisses+d.FullHits)
	}
	q, digest, bad := checkOutputs(checks)
	out.failed += int64(bad * passes)
	if q != firstQ {
		out.problem("checked cells count %+v, the sweep counted %+v", q, firstQ)
	}
	out.quality, out.digest = firstQ, digest

	p50, tail, _ := percentiles(passTimes)
	rss, err := peakRSSMiB("self")
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: eval-sweep: %d passes of %d compiles over %.2fs\n",
		passes, opsPerPass, elapsed.Seconds())
	m := out.metrics
	m["setup_s"] = metric{setup.Seconds(), "s"}
	m["throughput_per_s"] = metric{float64(opsPerPass*int64(passes)) / elapsed.Seconds(), "1/s"}
	m["latency_p50_ms"] = metric{ms(p50), "ms"}
	m["latency_p99_ms"] = metric{ms(tail), "ms"}
	m["peak_rss_mb"] = metric{rss, "MiB"}
	firstQ.put(m)
	return out, nil
}
