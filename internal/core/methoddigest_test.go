package core

import (
	"testing"

	"prescount/internal/bankfile"
	"prescount/internal/compilecache"
	"prescount/internal/workload"
)

// TestMethodGatedKnobDigests pins the method gating of Algorithm 1's
// knobs: THRES, DisablePressure and DisableFreeHints key only bpc (and
// portfolio) compiles, so sweeping them never splits (or invalidates) the
// cache entries of any other method.
func TestMethodGatedKnobDigests(t *testing.T) {
	file := bankfile.RV2(2)
	knob := func(o Options) Options {
		o.THRES, o.DisablePressure, o.DisableFreeHints = 0.5, true, true
		return o
	}
	// Dead under every method that does not read them.
	for _, m := range []Method{MethodNon, MethodBCR, MethodBRC, MethodBinpack, MethodColoring} {
		base := Options{File: file, Method: m}
		if knob(base).FullDigest() != base.FullDigest() {
			t.Errorf("%v: dead bank-assignment knobs split the FullDigest", m)
		}
	}
	// ...and live under bpc.
	bpc := Options{File: file, Method: MethodBPC}
	if knob(bpc).FullDigest() == bpc.FullDigest() {
		t.Error("bank-assignment knobs did not key a bpc compile")
	}
	// The alternative allocators key distinct full entries.
	col := Options{File: file, Method: MethodColoring}
	bp := Options{File: file, Method: MethodBinpack}
	if col.FullDigest() == bp.FullDigest() {
		t.Error("binpack and coloring share a FullDigest")
	}
	// The prefix is method-independent: every method and knob shares it.
	for _, o := range []Options{col, bp, bpc, knob(bpc)} {
		if o.PrefixDigest() != (Options{File: file}).PrefixDigest() {
			t.Errorf("method/knob options leaked into the PrefixDigest: %+v", o)
		}
	}
}

// TestPortfolioDigestKeysEveryKnob pins that a portfolio digest reads
// every knob one of its candidates reads, so two portfolio compiles that
// differ in any of them never share an entry (batch dedup keys on it).
func TestPortfolioDigestKeysEveryKnob(t *testing.T) {
	base := Options{File: bankfile.RV2(2), Method: MethodPortfolio}
	knobs := []struct {
		name string
		set  func(*Options)
	}{
		{"THRES", func(o *Options) { o.THRES = 0.5 }},
		{"DisablePressure", func(o *Options) { o.DisablePressure = true }},
		{"DisableFreeHints", func(o *Options) { o.DisableFreeHints = true }},
	}
	for _, k := range knobs {
		o := base
		k.set(&o)
		if o.FullDigest() == base.FullDigest() {
			t.Errorf("%s did not key a portfolio compile", k.name)
		}
	}
	for _, m := range portfolioMethods {
		if (Options{File: bankfile.RV2(2), Method: m}).FullDigest() == base.FullDigest() {
			t.Errorf("portfolio shares a FullDigest with %v", m)
		}
	}
}

// TestCrossMethodCacheHitRates is the satellite hit-rate regression: a warm
// single-method entry must keep hitting while the other methods compile
// the same function — adding methods must not dilute existing hit rates.
func TestCrossMethodCacheHitRates(t *testing.T) {
	f := workload.RandomSized(3, 60)
	file := bankfile.RV2(2)
	cache := compilecache.New()
	bpc := Options{File: file, Method: MethodBPC, Cache: cache}
	if _, err := Compile(f, bpc); err != nil {
		t.Fatal(err)
	}

	// Every other allocator method, plus a bpc knob sweep.
	for _, m := range []Method{MethodColoring, MethodBinpack, MethodNon} {
		o := bpc
		o.Method = m
		if _, err := Compile(f, o); err != nil {
			t.Fatal(err)
		}
	}
	for _, thres := range []float64{0.25, 0.75} {
		o := bpc
		o.THRES = thres
		if _, err := Compile(f, o); err != nil {
			t.Fatal(err)
		}
	}

	// The method-independent prefix compiled exactly once for all of it.
	st := cache.Stats()
	if st.PrefixMisses != 1 {
		t.Errorf("prefix compiled %d times across methods, want 1", st.PrefixMisses)
	}
	// Each method and knob setting is its own full entry (no false sharing)...
	if st.FullMisses != 6 {
		t.Errorf("full misses = %d, want 6 (bpc, coloring, binpack, non and 2 THRES values)", st.FullMisses)
	}
	// ...and none of it touched the bpc entry: recompiling is a pure hit.
	before := cache.Stats()
	if _, err := Compile(f, bpc); err != nil {
		t.Fatal(err)
	}
	delta := cache.Stats().Delta(before)
	if delta.FullHits != 1 || delta.FullMisses != 0 {
		t.Errorf("warm bpc recompile after the other methods: %+v, want a pure full hit", delta)
	}
}
