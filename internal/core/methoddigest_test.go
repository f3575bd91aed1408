package core

import (
	"testing"
	"time"

	"prescount/internal/bankfile"
	"prescount/internal/compilecache"
	"prescount/internal/workload"
)

// TestMethodGatedKnobDigests pins the method gating of the portfolio
// allocators' knobs: ColoringTimeout keys only coloring compiles and
// BinpackMaxRescues only binpack compiles, so sweeping either knob never
// splits (or invalidates) the cache entries of any other method.
func TestMethodGatedKnobDigests(t *testing.T) {
	file := bankfile.RV2(2)
	// Dead under every method that does not read them.
	for _, m := range []Method{MethodNon, MethodBCR, MethodBPC, MethodBRC} {
		base := Options{File: file, Method: m}
		knobbed := base
		knobbed.ColoringTimeout = 5 * time.Millisecond
		knobbed.BinpackMaxRescues = 9
		if knobbed.FullDigest() != base.FullDigest() {
			t.Errorf("%v: dead portfolio knobs split the FullDigest", m)
		}
	}
	// Each knob keys its own method...
	col := Options{File: file, Method: MethodColoring}
	colT := col
	colT.ColoringTimeout = 5 * time.Millisecond
	if colT.FullDigest() == col.FullDigest() {
		t.Error("ColoringTimeout did not key a coloring compile")
	}
	bp := Options{File: file, Method: MethodBinpack}
	bpR := bp
	bpR.BinpackMaxRescues = 9
	if bpR.FullDigest() == bp.FullDigest() {
		t.Error("BinpackMaxRescues did not key a binpack compile")
	}
	// ...and only its own: the sibling knob is dead.
	colR := col
	colR.BinpackMaxRescues = 9
	if colR.FullDigest() != col.FullDigest() {
		t.Error("BinpackMaxRescues split a coloring digest")
	}
	bpT := bp
	bpT.ColoringTimeout = 5 * time.Millisecond
	if bpT.FullDigest() != bp.FullDigest() {
		t.Error("ColoringTimeout split a binpack digest")
	}
	// The new methods themselves key distinct full entries.
	if col.FullDigest() == bp.FullDigest() {
		t.Error("binpack and coloring share a FullDigest")
	}
	// The prefix is method-independent: every method and knob shares it.
	for _, o := range []Options{col, colT, bp, bpR, {File: file, Method: MethodBPC}} {
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
		{"ColoringTimeout", func(o *Options) { o.ColoringTimeout = 5 * time.Millisecond }},
		{"BinpackMaxRescues", func(o *Options) { o.BinpackMaxRescues = 9 }},
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
// single-method entry must keep hitting while the portfolio allocators'
// knobs sweep — adding methods must not dilute existing hit rates.
func TestCrossMethodCacheHitRates(t *testing.T) {
	f := workload.RandomSized(3, 60)
	file := bankfile.RV2(2)
	cache := compilecache.New()
	bpc := Options{File: file, Method: MethodBPC, Cache: cache}
	if _, err := Compile(f, bpc); err != nil {
		t.Fatal(err)
	}

	// Sweep the coloring work budget and the binpack rescue cap.
	for _, d := range []time.Duration{0, time.Millisecond, time.Second} {
		col := bpc
		col.Method = MethodColoring
		col.ColoringTimeout = d
		if _, err := Compile(f, col); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{0, 2, 8} {
		b := bpc
		b.Method = MethodBinpack
		b.BinpackMaxRescues = n
		if _, err := Compile(f, b); err != nil {
			t.Fatal(err)
		}
	}

	// The method-independent prefix compiled exactly once for all of it.
	st := cache.Stats()
	if st.PrefixMisses != 1 {
		t.Errorf("prefix compiled %d times across methods, want 1", st.PrefixMisses)
	}
	// Each knob setting is its own full entry (no false sharing)...
	if st.FullMisses != 7 {
		t.Errorf("full misses = %d, want 7 (1 bpc + 3 coloring budgets + 3 rescue caps)", st.FullMisses)
	}
	// ...and none of it touched the bpc entry: recompiling is a pure hit.
	before := cache.Stats()
	if _, err := Compile(f, bpc); err != nil {
		t.Fatal(err)
	}
	delta := cache.Stats().Delta(before)
	if delta.FullHits != 1 || delta.FullMisses != 0 {
		t.Errorf("warm bpc recompile after knob sweeps: %+v, want a pure full hit", delta)
	}
}
