// Command prescountc compiles textual MIR through the PresCount register
// allocation pipeline and reports bank-conflict statistics.
//
// Usage:
//
//	prescountc [flags] file.mir...
//
//	-regs N        FP register file size (default 32)
//	-banks N       bank count (default 2)
//	-subgroups N   subgroups per bank (default 1; >1 enables the DSA path)
//	-method M      non | bcr | brc | bpc | binpack | coloring (default bpc),
//	               or "portfolio" (race bpc, brc, binpack and coloring per
//	               function, keep the cheapest result); coloring bails to
//	               linear scan past a fixed deterministic work budget
//	-dump          print the allocated MIR
//	-dot G         print a Graphviz document of one pre-allocation
//	               analysis per function instead of compiling it:
//	               rig | rcg | sdg
//	-run           simulate the allocated code and report dynamic metrics
//	-vliw          use the dual-issue VLIW cycle model when simulating
//	-o FILE        write the allocated MIR of every input function to
//	               FILE as one module
//	-cache M       on | off: share a compile cache across the input
//	               functions, so repeated kernel bodies (common in
//	               machine-generated MIR) compile once (default on)
//	-disk-cache DIR  persistent compile-result store layered under the
//	               in-memory cache: results survive process restarts, so
//	               recompiling the same kernels across invocations is a
//	               disk read instead of a compile (requires -cache on)
//	-disk-cache-bytes N  on-disk store byte cap (default 1 GiB)
//	-verify-each   run the phase-boundary verifier between pipeline stages;
//	               a rule violation aborts the compile with a diagnostic
//	               naming the rule, function, block and instruction (note:
//	               verified compiles bypass the compile cache)
//	-validate      run the translation validator after allocation: the
//	               allocated output is symbolically executed in lockstep
//	               with the pre-allocation MIR and any value, store,
//	               branch or memory divergence aborts the compile with a
//	               T-rule diagnostic (validated compiles bypass the
//	               compile cache, like -verify-each)
//
// With no file arguments, prescountc reads one function from stdin.
// Inputs are processed in command-line order, so reports and the -o module
// are stable across runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"prescount"
	"prescount/internal/compilecache"
	"prescount/internal/core"
	"prescount/internal/diskcache"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "prescountc:", err)
		os.Exit(1)
	}
}

// input is one named MIR source, in command-line order.
type input struct {
	name, src string
}

// run is the testable body of the command: it parses flags from args,
// reads sources (argv order; stdin when no files), compiles and writes the
// per-function reports to stdout.
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("prescountc", flag.ContinueOnError)
	regs := fs.Int("regs", 32, "FP register file size")
	banks := fs.Int("banks", 2, "number of register banks")
	subgroups := fs.Int("subgroups", 1, "subgroups per bank (>1 enables the DSA pipeline)")
	method := fs.String("method", "bpc", "allocation method: non | bcr | brc | bpc | binpack | coloring | portfolio")
	dump := fs.Bool("dump", false, "print the allocated MIR")
	dot := fs.String("dot", "", "emit a Graphviz document of the pre-allocation analyses: rig | rcg | sdg")
	runSim := fs.Bool("run", false, "simulate the allocated code")
	vliw := fs.Bool("vliw", false, "VLIW dual-issue cycle model")
	outPath := fs.String("o", "", "write the allocated MIR of all inputs to this file")
	cacheMode := fs.String("cache", "on", "compile cache across input functions: on | off")
	diskDir := fs.String("disk-cache", "", "directory for the persistent compile-result store (empty disables)")
	diskBytes := fs.Int64("disk-cache-bytes", 1<<30, "on-disk store byte cap, mtime-LRU swept (0 = unlimited)")
	verifyEach := fs.Bool("verify-each", false, "run the phase-boundary verifier between pipeline stages")
	validate := fs.Bool("validate", false, "run the translation validator on the allocated output")
	if err := fs.Parse(args); err != nil {
		return err
	}

	m, err := core.ParseMethod(*method)
	if err != nil {
		return err
	}
	file := prescount.RegisterFile{
		NumRegs:      *regs,
		NumBanks:     *banks,
		NumSubgroups: *subgroups,
		ReadPorts:    1,
	}
	opts := prescount.Options{
		File: file, Method: m, Subgroups: *subgroups > 1,
		VerifyEach: *verifyEach, Validate: *validate,
	}
	switch *cacheMode {
	case "on":
		// One cache across every input function: content-identical bodies
		// under different names dedup to a single compile.
		opts.Cache = compilecache.New()
	case "off":
	default:
		return fmt.Errorf("-cache: want on or off, got %q", *cacheMode)
	}
	if *diskDir != "" {
		if opts.Cache == nil {
			return fmt.Errorf("-disk-cache requires -cache on")
		}
		store, err := diskcache.Open(*diskDir, *diskBytes)
		if err != nil {
			return fmt.Errorf("disk cache: %w", err)
		}
		// Close flushes the write-behind queue so this invocation's results
		// are on disk for the next one.
		defer store.Close()
		opts.Cache.SetFullBacking(core.NewDiskBacking(store))
	}

	// Inputs keep their argv order: per-file report order and the -o
	// output module must not vary run to run.
	var sources []input
	if fs.NArg() == 0 {
		data, err := io.ReadAll(stdin)
		if err != nil {
			return err
		}
		sources = append(sources, input{"<stdin>", string(data)})
	}
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		sources = append(sources, input{path, string(data)})
	}

	outMod := prescount.NewModule("allocated")
	for _, in := range sources {
		mod, err := prescount.ParseModule(in.src)
		if err != nil {
			return err
		}
		if len(mod.Funcs) == 0 {
			// Try a bare function.
			f, ferr := prescount.Parse(in.src)
			if ferr != nil {
				return ferr
			}
			mod.Add(f)
		}
		for _, f := range mod.SortedFuncs() {
			if *dot != "" {
				doc, err := prescount.GraphDOT(f, *dot)
				if err != nil {
					return err
				}
				fmt.Fprint(stdout, doc)
				continue
			}
			res, err := prescount.Compile(f, opts)
			if err != nil {
				return err
			}
			methodLine := m.String()
			if m == prescount.MethodPortfolio {
				methodLine += " winner=" + res.Method.String()
			}
			r := res.Report
			fmt.Fprintf(stdout, "%s/%s: file=%v method=%s\n", in.name, f.Name, file, methodLine)
			fmt.Fprintf(stdout, "  instrs=%d conflict-relevant=%d static-conflicts=%d weighted=%.0f\n",
				r.Instrs, r.ConflictRelevant, r.StaticConflicts, r.WeightedConflicts)
			fmt.Fprintf(stdout, "  spills=%d+%d copies=%d subgroup-violations=%d\n",
				r.SpillStores, r.SpillReloads, r.Copies, r.SubgroupViolations)
			if *dump {
				fmt.Fprint(stdout, prescount.Print(res.Func))
			}
			if *outPath != "" {
				outMod.Add(res.Func)
			}
			if *runSim {
				sr, err := prescount.Simulate(res.Func, prescount.SimOptions{
					File: file,
					VLIW: *vliw,
				})
				if err != nil {
					return err
				}
				fmt.Fprintf(stdout, "  executed=%d cycles=%d dynamic-conflicts=%d\n",
					sr.Steps, sr.Cycles, sr.DynamicConflicts)
			}
		}
	}
	return writeOut(*outPath, outMod)
}

func writeOut(path string, mod *prescount.Module) error {
	if path == "" || len(mod.Funcs) == 0 {
		return nil
	}
	if err := os.WriteFile(path, []byte(prescount.PrintModule(mod)), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "prescountc: wrote %s\n", path)
	return nil
}
