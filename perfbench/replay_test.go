package main

import (
	"testing"
	"time"

	"prescount"
	"prescount/internal/compilecache"
	"prescount/internal/experiments"
)

// TestReplayMatchesCompile pins the traced batch-cold replay to
// prescount.Compile on kernels of every suite, including the DSA subgroup
// path, and checks that the replay recorded its phases.
func TestReplayMatchesCompile(t *testing.T) {
	funcs := batchInputs(1)
	picked := map[string]int{}
	r := &replayer{rec: newRecorder(time.Now())}
	for _, bf := range funcs {
		suite := bf.key[:3]
		if picked[suite] == 3 || bf.fn.NumInstrs() > 800 {
			continue
		}
		picked[suite]++
		res, err := prescount.Compile(bf.fn, bf.opts)
		if err != nil {
			t.Fatalf("%s: %v", bf.key, err)
		}
		rep, err := r.compile(bf.fn, bf.opts)
		if err != nil {
			t.Fatalf("%s: replay: %v", bf.key, err)
		}
		if !sameOutput(rep, res) {
			t.Errorf("%s: replay differs from prescount.Compile", bf.key)
		}
	}
	if len(picked) != 3 {
		t.Fatalf("sampled suites %v, want SPECfp, CNN-KERNEL and DSA-OP", picked)
	}
	_, count := layerTimes(r.rec.spans)
	for _, layer := range []string{"ir.verify", "ir.clone", "cfg", "liveness", "rcg", "coalesce", "sdg", "sched", "assign", "regalloc", "conflict"} {
		if count[layer] == 0 {
			t.Errorf("no %s span recorded", layer)
		}
	}
}

// TestCachedReplayMatchesCompile pins the traced eval-sweep replay of the
// cached path to prescount.Compile through a real compile cache, over every
// bank count and method of the sweep, for one program of each suite.
func TestCachedReplayMatchesCompile(t *testing.T) {
	var progs []*prescount.Program
	for _, s := range sweepInputs() {
		progs = append(progs, s.Programs[0])
	}
	plain, traced := compilecache.New(), compilecache.New()
	r := &replayer{rec: newRecorder(time.Now())}
	for _, bank := range sweepBanks {
		for _, m := range experiments.Methods {
			for _, p := range progs {
				for _, f := range p.Funcs() {
					res, err := prescount.Compile(f, sweepOpts(bank, m, plain))
					if err != nil {
						t.Fatal(err)
					}
					rep, err := r.compileCached(f, sweepOpts(bank, m, traced))
					if err != nil {
						t.Fatal(err)
					}
					if !sameOutput(rep, res) {
						t.Errorf("%d/%s/%s/%s: replay differs from prescount.Compile", bank, m, p.Name, f.Name)
					}
				}
			}
		}
	}
	if a, b := plain.Stats(), traced.Stats(); a.FullHits != b.FullHits || a.PrefixHits != b.PrefixHits || a.AllocHits != b.AllocHits {
		t.Errorf("replay cache hits %+v differ from the compile cache's %+v", b, a)
	}
	if _, count := layerTimes(r.rec.spans); count["renumber"] == 0 || count["compilecache"] == 0 {
		t.Errorf("renumber and compilecache spans missing: %v", count)
	}
}
