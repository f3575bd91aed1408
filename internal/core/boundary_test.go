package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"prescount/internal/bankfile"
	"prescount/internal/compilecache"
	"prescount/internal/ir"
	"prescount/internal/verify"
	"prescount/internal/workload"
)

// boundaryCase is one compile whose phase boundaries TestPhaseBoundaries
// pins. cache is "" for the uncached path, "cold" for a fresh cache, and
// "warm" for a cache that already holds the same compile at 2 banks, so the
// timed compile hits the prefix layer (bpc) or the alloc layer (brc).
type boundaryCase struct {
	name  string
	f     *ir.Func
	opts  Options
	cache string
	// polls is the error of a deadline at each context poll, run-length
	// encoded as "first-last: text" ("k: text" for a single poll), with
	// the wrapped context.DeadlineExceeded stripped.
	polls []string
	// checks is verify.ChecksRun per compile of opts under VerifyEach
	// (not measured on the cached cases, which VerifyEach bypasses).
	checks int64
}

func boundaryCases(t *testing.T) []boundaryCase {
	r := workload.RandomSized(5, 200)
	rv := bankfile.RV2(4)
	const (
		entry    = "core: rand200"
		before   = "core: rand200: cancelled before "
		regalloc = "core: rand200: regalloc: rand200"
	)
	bpc := []string{
		"1: " + entry,
		"2: " + before + "coalesce",
		"3: " + before + "sched",
		"4: " + before + "bank-assign",
		"5: " + before + "regalloc",
		"6-30: " + regalloc,
		"31: " + before + "conflict-analysis",
	}
	brc := []string{
		"1: " + entry,
		"2: " + before + "coalesce",
		"3: " + before + "sched",
		"4: " + before + "regalloc",
		"5-28: " + regalloc,
		"29: " + before + "renumber",
		"30: " + before + "conflict-analysis",
	}
	return []boundaryCase{
		{name: "bpc", f: r, opts: Options{File: rv, Method: MethodBPC}, checks: 18, polls: bpc},
		{name: "brc", f: r, opts: Options{File: rv, Method: MethodBRC}, checks: 19, polls: brc},
		{name: "non-bare", f: r, opts: Options{File: rv, Method: MethodNon, DisableCoalesce: true, DisableSched: true}, checks: 6, polls: []string{
			"1: " + entry,
			"2: " + before + "regalloc",
			"3-26: " + regalloc,
			"27: " + before + "conflict-analysis",
		}},
		{name: "linear-scan", f: r, opts: Options{File: rv, Method: MethodBPC, LinearScan: true}, checks: 18, polls: []string{
			"1: " + entry,
			"2: " + before + "coalesce",
			"3: " + before + "sched",
			"4: " + before + "bank-assign",
			"5: " + before + "regalloc",
			"6: " + before + "conflict-analysis",
		}},
		{name: "binpack", f: r, opts: Options{File: rv, Method: MethodBinpack}, checks: 17, polls: []string{
			"1: " + entry,
			"2: " + before + "coalesce",
			"3: " + before + "sched",
			"4: " + before + "regalloc",
			"5: " + before + "conflict-analysis",
		}},
		// Coloring returns the bare ctx.Err(), which core wraps with the
		// function name only.
		{name: "coloring", f: r, opts: Options{File: rv, Method: MethodColoring}, checks: 17, polls: []string{
			"1: " + entry,
			"2: " + before + "coalesce",
			"3: " + before + "sched",
			"4: " + before + "regalloc",
			"5-34: " + entry,
			"35: " + before + "conflict-analysis",
		}},
		{name: "dsa", f: dsaKernel(t), opts: Options{File: bankfile.DSA(64), Method: MethodBPC, Subgroups: true}, checks: 23, polls: []string{
			"1: core: dsak",
			"2: core: dsak: cancelled before coalesce",
			"3: core: dsak: cancelled before sdg-split",
			"4: core: dsak: cancelled before sched",
			"5: core: dsak: cancelled before bank-assign",
			"6: core: dsak: cancelled before regalloc",
			"7-8: core: dsak: regalloc: dsak",
			"9: core: dsak: cancelled before conflict-analysis",
		}},
		{name: "bpc/verify-each", f: r, opts: Options{File: rv, Method: MethodBPC, VerifyEach: true}, checks: 18, polls: bpc},
		{name: "brc/verify-each", f: r, opts: Options{File: rv, Method: MethodBRC, VerifyEach: true}, checks: 19, polls: brc},
		{name: "bpc/cold-cache", f: r, opts: Options{File: rv, Method: MethodBPC}, cache: "cold", polls: bpc},
		{name: "brc/cold-cache", f: r, opts: Options{File: rv, Method: MethodBRC}, cache: "cold", polls: brc},
		{name: "bpc/prefix-hit", f: r, opts: Options{File: rv, Method: MethodBPC}, cache: "warm", polls: []string{
			"1: " + entry,
			"2: " + before + "bank-assign",
			"3: " + before + "regalloc",
			"4-28: " + regalloc,
			"29: " + before + "conflict-analysis",
		}},
		{name: "brc/alloc-hit", f: r, opts: Options{File: rv, Method: MethodBRC}, cache: "warm", polls: []string{
			"1: " + entry,
			"2: " + before + "renumber",
			"3: " + before + "conflict-analysis",
		}},
	}
}

// TestPhaseBoundaries pins where a compile polls its context and what it
// reports there: a deadline at every poll of each case must end the compile
// with the committed error text, and the poll count must match. It also
// pins how many verifier checks each compile runs under VerifyEach. A
// refactor of the phase sequence or the cache layers must leave both alone.
func TestPhaseBoundaries(t *testing.T) {
	for _, c := range boundaryCases(t) {
		t.Run(c.name, func(t *testing.T) {
			got := boundaryPolls(t, c)
			if strings.Join(got, "\n") != strings.Join(c.polls, "\n") {
				t.Errorf("polls:\n\t%s\nwant:\n\t%s", strings.Join(got, "\n\t"), strings.Join(c.polls, "\n\t"))
			}
			if c.cache != "" {
				return
			}
			o := c.opts
			o.VerifyEach = true
			before := verify.ChecksRun()
			if _, err := Compile(c.f, o); err != nil {
				t.Fatal(err)
			}
			if got := verify.ChecksRun() - before; got != c.checks {
				t.Errorf("VerifyEach ran %d checks, want %d", got, c.checks)
			}
		})
	}
}

// boundaryPolls counts the context polls of one compile of c, then expires
// the deadline at each poll in turn and returns the run-length encoded
// error texts.
func boundaryPolls(t *testing.T, c boundaryCase) []string {
	compile := func(ctx context.Context) error {
		o := c.opts
		if c.cache != "" {
			o.Cache = compilecache.New()
		}
		if c.cache == "warm" {
			w := o
			w.File = bankfile.RV2(2)
			if _, err := Compile(c.f, w); err != nil {
				t.Fatal(err)
			}
		}
		_, err := CompileContext(ctx, c.f, o)
		return err
	}
	count := &expireAt{Context: context.Background()}
	if err := compile(count); err != nil {
		t.Fatal(err)
	}
	texts := make([]string, 0, count.calls)
	for k := 1; k <= count.calls; k++ {
		err := compile(&expireAt{Context: context.Background(), k: k})
		if err == nil {
			texts = append(texts, "ok")
			continue
		}
		texts = append(texts, strings.TrimSuffix(err.Error(), ": "+context.DeadlineExceeded.Error()))
	}
	var runs []string
	for i := 0; i < len(texts); {
		j := i
		for j+1 < len(texts) && texts[j+1] == texts[i] {
			j++
		}
		if i == j {
			runs = append(runs, fmt.Sprintf("%d: %s", i+1, texts[i]))
		} else {
			runs = append(runs, fmt.Sprintf("%d-%d: %s", i+1, j+1, texts[i]))
		}
		i = j + 1
	}
	return runs
}
