package assign

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"testing"

	"prescount/internal/bankfile"
	"prescount/internal/ir"
	"prescount/internal/rcg"
	"prescount/internal/workload"
)

// visitReference is Algorithm 1's processing order as the assigner used to
// run it, kept as the differential oracle for visitWorklist: components
// sorted by a comparator that recomputes each side's maximum Cost_R, and
// every seed and worklist head found by scanning a register set
// (maxConflictCost, maxCostDegree).
func visitReference(g *rcg.Graph, bankOf []int32, color func(v ir.Reg)) {
	comps := g.Components()
	maxCost := func(comp []ir.Reg) float64 {
		m := 0.0
		for _, r := range comp {
			if c := g.Cost(r); c > m {
				m = c
			}
		}
		return m
	}
	sort.SliceStable(comps, func(i, j int) bool {
		ci, cj := maxCost(comps[i]), maxCost(comps[j])
		if ci != cj {
			return ci > cj
		}
		return comps[i][0] < comps[j][0]
	})
	var unprocessed, worklist ir.RegSet
	for _, comp := range comps {
		unprocessed.Clear()
		for _, r := range comp {
			unprocessed.Add(r)
		}
		nUnproc := len(comp)
		for nUnproc > 0 {
			seed := maxConflictCost(g, &unprocessed)
			worklist.Clear()
			worklist.Add(seed)
			nWork := 1
			for nWork > 0 {
				v := maxCostDegree(g, &worklist)
				worklist.Remove(v)
				nWork--
				if unprocessed.Has(v) {
					unprocessed.Remove(v)
					nUnproc--
				}
				color(v)
				for _, n := range g.Neighbors(v) {
					if bankOf[n.VirtIndex()] == 0 && unprocessed.Has(n) && !worklist.Has(n) {
						worklist.Add(n)
						nWork++
					}
				}
			}
		}
	}
}

// maxConflictCost returns the register with the largest Cost_R among the
// set, breaking ties by smaller register for determinism.
func maxConflictCost(g *rcg.Graph, set *ir.RegSet) ir.Reg {
	var best ir.Reg
	bestCost := -1.0
	first := true
	set.ForEach(func(r ir.Reg) {
		c := g.Cost(r)
		if first || c > bestCost || (c == bestCost && r < best) {
			best, bestCost, first = r, c, false
		}
	})
	return best
}

// maxCostDegree returns the worklist entry with the highest conflict cost,
// then highest degree, then smallest register (Algorithm 1's
// MaxCostDegree).
func maxCostDegree(g *rcg.Graph, set *ir.RegSet) ir.Reg {
	var best ir.Reg
	bestCost := -1.0
	bestDeg := -1
	first := true
	set.ForEach(func(r ir.Reg) {
		c, d := g.Cost(r), g.Degree(r)
		better := first || c > bestCost ||
			(c == bestCost && d > bestDeg) ||
			(c == bestCost && d == bestDeg && r < best)
		if better {
			best, bestCost, bestDeg, first = r, c, d, false
		}
	})
	return best
}

// referenceCorpus returns every SPECfp, CNN-KERNEL and DSA-OP function and
// RandomSized kernels at three sizes, with their analyses.
func referenceCorpus(t *testing.T) []env {
	t.Helper()
	var funcs []*ir.Func
	for _, s := range []*workload.Suite{workload.SPECfp(), workload.CNN(), workload.DSAOP()} {
		for _, p := range s.Programs {
			funcs = append(funcs, p.Funcs()...)
		}
	}
	for _, n := range []int{64, 512, 4096} {
		funcs = append(funcs, workload.RandomSized(11, n))
	}
	envs := make([]env, len(funcs))
	for i, f := range funcs {
		envs[i] = prep(t, f)
	}
	return envs
}

// TestPresCountMatchesReference checks that the heap worklist colors every
// node exactly as the scanning reference does: the same BankOf, FreeHints
// and Forced, Forced in order. The corpus runs on all four register files
// under the default options; the ablations and the THRES extremes, which
// send forced nodes to the pressure pick (THRES below any pressure) or to
// neighbourCostBest (THRES above any), run on the two small RV#2 files,
// where the RCGs do not color cleanly.
func TestPresCountMatchesReference(t *testing.T) {
	corpus := referenceCorpus(t)
	type run struct {
		cfg  bankfile.Config
		opts Options
	}
	var runs []run
	for _, file := range []bankfile.Config{bankfile.RV2(2), bankfile.RV2(4), bankfile.RV1(4), bankfile.DSA(1024)} {
		runs = append(runs, run{file, Options{}})
	}
	for _, file := range []bankfile.Config{bankfile.RV2(2), bankfile.RV2(4)} {
		for _, opts := range []Options{
			{DisablePressure: true},
			{DisableFreeHints: true},
			{THRES: 1e-9},
			{THRES: 1e9},
		} {
			runs = append(runs, run{file, opts})
		}
	}
	forced := map[float64]int{}
	for _, r := range runs {
		name := fmt.Sprintf("%v/%+v", r.cfg, r.opts)
		for _, e := range corpus {
			got := PresCount(e.f, e.g, e.lv, r.cfg, r.opts)
			want := presCount(e.f, e.g, e.lv, r.cfg, r.opts, visitReference)
			if !maps.Equal(got.BankOf, want.BankOf) {
				t.Fatalf("%s %s: BankOf differs from the reference", name, e.f.Name)
			}
			if !maps.Equal(got.FreeHints, want.FreeHints) {
				t.Fatalf("%s %s: FreeHints differ from the reference", name, e.f.Name)
			}
			if !slices.Equal(got.Forced, want.Forced) {
				t.Fatalf("%s %s: Forced = %v, reference %v", name, e.f.Name, got.Forced, want.Forced)
			}
			forced[r.opts.THRES] += len(got.Forced)
		}
	}
	for _, thres := range []float64{1e-9, 1e9} {
		if forced[thres] == 0 {
			t.Errorf("THRES %g forced no node: its branch went untested", thres)
		}
	}
}
