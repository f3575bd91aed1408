// Command perfbench is the repository benchmark harness. One invocation is
// one run of one workload:
//
//	perfbench -workload batch-cold -seed 1 -seconds 20 -trace 0
//
// It prints diagnostics on standard error and, as the last line of standard
// output, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With -trace 0 the metrics are the end-to-end set (timings, memory and the
// paper's code-quality counts); with -trace 1 the run records spans around
// the calls it makes into each layer and reports per-layer metrics instead.
// perfbench/run.py builds the harness and the serving binaries and is the
// entry point BENCHMARK.json names; README.md documents every workload and
// metric.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	binDir   string
	traceOut string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quality is the paper's code-quality counts summed over a fixed,
// seed-determined set of compiled functions. Copies enter the determinism
// record but are not a reported metric: coalescing leaves none in the RV#2
// and served outputs, and a metric that reads 0 has no relative spread.
type quality struct {
	Static int64 `json:"static_conflicts"`
	Dyn    int64 `json:"dyn_conflicts"`
	Spills int64 `json:"spill_instrs"`
	Copies int64 `json:"copies"`
	Cycles int64 `json:"sim_cycles"`
	Instrs int64 `json:"code_instrs"`
}

func (q quality) put(m map[string]metric) {
	m["static_conflicts"] = metric{float64(q.Static), "count"}
	m["dyn_conflicts"] = metric{float64(q.Dyn), "count"}
	m["spill_instrs"] = metric{float64(q.Spills), "count"}
	m["sim_cycles"] = metric{float64(q.Cycles), "count"}
	m["code_instrs"] = metric{float64(q.Instrs), "count"}
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int64
	metrics           map[string]metric
	// quality and digest identify the run's output for the determinism
	// record (untraced runs only): the quality counts and a SHA-256 over
	// the output bytes of the same fixed set of functions.
	quality quality
	digest  string
	// problems are correctness failures that are not tied to one op.
	problems []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(config) (*outcome, error){
	"batch-cold":  runBatchCold,
	"eval-sweep":  runEvalSweep,
	"serve-hot":   runServeHot,
	"serve-sweep": runServeSweep,
}

func main() {
	var cfg config
	var seconds float64
	var trace int
	var recordPath string
	flag.StringVar(&cfg.workload, "workload", "", "batch-cold | eval-sweep | serve-hot | serve-sweep")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&seconds, "seconds", 20, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&cfg.binDir, "bin", "", "directory holding the prescountd and prescountrouter binaries")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "file the traced run writes its spans to")
	flag.StringVar(&recordPath, "record", "", "determinism record: written by the first untraced run of a seed, compared by later ones")
	flag.Parse()
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace != 0
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds\n", cfg.workload)
		os.Exit(2)
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !cfg.trace && recordPath != "" {
		if err := checkRecord(recordPath, out); err != nil {
			out.problem("determinism: %v", err)
		}
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	res := result{
		Correct:   out.failed == 0 && len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// determinismRecord is the persisted identity of one seed's output.
type determinismRecord struct {
	Quality quality `json:"quality"`
	Digest  string  `json:"output_digest"`
}

// checkRecord compares the run's output identity with the record at path,
// or writes the record when this is the first run of the seed.
func checkRecord(path string, out *outcome) error {
	cur := determinismRecord{Quality: out.quality, Digest: out.digest}
	prev, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		data, err := json.Marshal(cur)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, path)
	}
	if err != nil {
		return err
	}
	var want determinismRecord
	if err := json.Unmarshal(prev, &want); err != nil {
		return fmt.Errorf("record %s: %w", path, err)
	}
	if want != cur {
		return fmt.Errorf("output differs from an earlier run of this seed: %+v, earlier %+v", cur, want)
	}
	return nil
}

// peakRSSMiB reads the peak resident set size of a process from
// /proc/<pid>/status ("self" for this process).
func peakRSSMiB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// timeSetup runs setup reps times and returns the median duration and the
// last run's value: set-up is short, so one sample would be mostly noise.
func timeSetup[T any](reps int, setup func() T) (time.Duration, T) {
	var v T
	ds := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		t := time.Now()
		v = setup()
		ds = append(ds, time.Since(t))
	}
	return medianDuration(ds), v
}
