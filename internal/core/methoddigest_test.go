package core

import (
	"reflect"
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

// digestExempt are the Options fields that never reach the compiled output
// and so stay out of every digest (see digest.go).
var digestExempt = map[string]bool{
	"Cache": true, "Workers": true, "VerifySemantics": true,
	"VerifyMemSize": true, "VerifyEach": true, "Validate": true,
}

// TestEveryOptionKeysTheCache walks every field of Options and of its
// File: set to a non-default value, a field must change FullDigest under
// some method that reads it, or be on digestExempt and change it under
// none. A field added to Options without a digest entry, or without an
// exemption, fails here before the cache can serve one configuration's
// bytes for another.
func TestEveryOptionKeysTheCache(t *testing.T) {
	// Every method, plain and on a subgrouped file with Subgroups (where
	// SDGMaxGroup is read).
	var bases []Options
	for m := MethodNon; m <= MethodPortfolio; m++ {
		bases = append(bases,
			Options{File: bankfile.RV2(2), Method: m},
			Options{File: bankfile.DSA(64), Method: m, Subgroups: true})
	}
	check := func(name string, field func(*Options) reflect.Value) {
		keyed := false
		for _, base := range bases {
			o := base
			v := field(&o)
			switch v.Kind() {
			case reflect.Bool:
				v.SetBool(!v.Bool())
			case reflect.Int:
				v.SetInt(v.Int() + 3)
			case reflect.Float64:
				v.SetFloat(v.Float() + 0.5)
			case reflect.Pointer:
				v.Set(reflect.New(v.Type().Elem()))
			default:
				t.Fatalf("%s: no non-default value for kind %v; extend this test", name, v.Kind())
			}
			keyed = keyed || o.FullDigest() != base.FullDigest()
		}
		switch {
		case digestExempt[name] && keyed:
			t.Errorf("%s is exempt but changes FullDigest", name)
		case !digestExempt[name] && !keyed:
			t.Errorf("%s changes FullDigest under no method: hash it in digest.go or exempt it", name)
		}
	}
	seen := 0
	ot := reflect.TypeOf(Options{})
	for i := 0; i < ot.NumField(); i++ {
		if digestExempt[ot.Field(i).Name] {
			seen++
		}
		if ot.Field(i).Name == "File" {
			ft := ot.Field(i).Type
			for j := 0; j < ft.NumField(); j++ {
				check("File."+ft.Field(j).Name, func(o *Options) reflect.Value {
					return reflect.ValueOf(o).Elem().Field(i).Field(j)
				})
			}
			continue
		}
		check(ot.Field(i).Name, func(o *Options) reflect.Value { return reflect.ValueOf(o).Elem().Field(i) })
	}
	if seen != len(digestExempt) {
		t.Errorf("digestExempt names %d fields, Options has %d of them", len(digestExempt), seen)
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
