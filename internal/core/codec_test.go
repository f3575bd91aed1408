package core

import (
	"bytes"
	"reflect"
	"testing"

	"prescount/internal/bankfile"
	"prescount/internal/ir"
	"prescount/internal/regalloc"
	"prescount/internal/workload"
)

// codecCases spans the option space the codec must round-trip: every
// method, both platform shapes, the DSA subgroup path and linear scan.
// TestCodecRoundTrip also round-trips the Rescues and ColoringBailed stats,
// set by hand. A portfolio result is one of these, and
// TestDiskServedByteIdentity needs every case to land on disk, which a
// race's zero-score short-circuit does not promise for its losers.
func codecCases() []Options {
	return []Options{
		{File: bankfile.Config{NumRegs: 32, NumBanks: 2}, Method: MethodBPC},
		{File: bankfile.Config{NumRegs: 32, NumBanks: 4}, Method: MethodNon},
		{File: bankfile.Config{NumRegs: 32, NumBanks: 8}, Method: MethodBCR},
		{File: bankfile.Config{NumRegs: 1024, NumBanks: 4}, Method: MethodBRC},
		{File: bankfile.Config{NumRegs: 1024, NumBanks: 2, NumSubgroups: 4}, Method: MethodBPC, Subgroups: true},
		{File: bankfile.Config{NumRegs: 32, NumBanks: 2}, Method: MethodNon, LinearScan: true},
		{File: bankfile.Config{NumRegs: 16, NumBanks: 2}, Method: MethodBinpack},
		{File: bankfile.Config{NumRegs: 32, NumBanks: 2}, Method: MethodColoring},
	}
}

func codecFuncs(t *testing.T) []*ir.Func {
	t.Helper()
	funcs := []*ir.Func{
		workload.RandomSized(1, 60),
		workload.RandomSized(2, 200),
		workload.RandomSized(3, 500),
	}
	for _, p := range workload.DSAOP().Programs[:2] {
		funcs = append(funcs, p.Funcs()...)
	}
	return funcs
}

// assertResultsEqual compares every serialized field of two results; the
// functions are compared by canonical text.
func assertResultsEqual(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if w, g := ir.Print(want.Func), ir.Print(got.Func); w != g {
		t.Fatalf("%s: function text diverged:\nwant:\n%s\ngot:\n%s", label, w, g)
	}
	if want.Func.NumFPRegs != got.Func.NumFPRegs || want.Func.SpillSlots != got.Func.SpillSlots {
		t.Fatalf("%s: allocator state diverged: NumFPRegs %d/%d SpillSlots %d/%d", label,
			want.Func.NumFPRegs, got.Func.NumFPRegs, want.Func.SpillSlots, got.Func.SpillSlots)
	}
	if !reflect.DeepEqual(want.Report, got.Report) {
		t.Fatalf("%s: reports diverged: %+v vs %+v", label, want.Report, got.Report)
	}
	wa, ga := *want.Alloc, *got.Alloc
	if len(wa.AssignedPhys) == 0 {
		wa.AssignedPhys = nil
	}
	if len(ga.AssignedPhys) == 0 {
		ga.AssignedPhys = nil
	}
	if len(wa.GroupDispl) == 0 {
		wa.GroupDispl = nil
	}
	if len(ga.GroupDispl) == 0 {
		ga.GroupDispl = nil
	}
	if !reflect.DeepEqual(wa, ga) {
		t.Fatalf("%s: alloc stats diverged: %+v vs %+v", label, wa, ga)
	}
	if want.Coalesce != got.Coalesce || want.SDG != got.SDG || want.Sched != got.Sched ||
		want.BankAssignForced != got.BankAssignForced || want.Renumber != got.Renumber {
		t.Fatalf("%s: pre-pass stats diverged", label)
	}
	if want.Method != got.Method {
		t.Fatalf("%s: method %v decoded as %v", label, want.Method, got.Method)
	}
}

// TestCodecRoundTrip pins the codec contract: decode(encode(r)) preserves
// every field, re-encoding is byte-identical, and the decoded result is
// byte-identical to a fresh compile of the same input.
func TestCodecRoundTrip(t *testing.T) {
	for _, f := range codecFuncs(t) {
		for _, opts := range codecCases() {
			res, err := Compile(f, opts)
			if err != nil {
				t.Fatalf("%s: compile: %v", f.Name, err)
			}
			enc, err := EncodeResult(res)
			if err != nil {
				t.Fatalf("%s: encode: %v", f.Name, err)
			}
			dec, err := DecodeResult(enc)
			if err != nil {
				t.Fatalf("%s: decode: %v", f.Name, err)
			}
			assertResultsEqual(t, res, dec, f.Name)

			reenc, err := EncodeResult(dec)
			if err != nil {
				t.Fatalf("%s: re-encode: %v", f.Name, err)
			}
			if !bytes.Equal(enc, reenc) {
				t.Fatalf("%s: re-encoding a decoded result changed bytes", f.Name)
			}

			// A fresh compile of the same input must agree byte-for-byte
			// with the decoded result — the property that lets a disk-served
			// entry substitute for a recompile.
			fresh, err := Compile(f, opts)
			if err != nil {
				t.Fatalf("%s: fresh compile: %v", f.Name, err)
			}
			assertResultsEqual(t, fresh, dec, f.Name+" (vs fresh)")
		}
	}
	// Set the binpack and coloring stats by hand, so they round-trip
	// whether or not a case above sets them.
	for _, c := range []struct {
		method Method
		set    func(*regalloc.Result)
	}{
		{MethodBinpack, func(a *regalloc.Result) { a.Rescues = 3 }},
		{MethodColoring, func(a *regalloc.Result) { a.ColoringBailed = true }},
	} {
		res, err := Compile(codecFuncs(t)[0], Options{File: bankfile.RV2(2), Method: c.method})
		if err != nil {
			t.Fatal(err)
		}
		set := *res
		alloc := *res.Alloc
		c.set(&alloc)
		set.Alloc = &alloc
		enc, err := EncodeResult(&set)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeResult(enc)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsEqual(t, &set, dec, c.method.String()+" stats set by hand")
	}
}

// TestCodecRejectsPortfolioMethod pins that a decoded result names one of
// the allocator methods: a portfolio result carries its winner, so a
// record naming the portfolio itself (or anything past it) is corrupt.
func TestCodecRejectsPortfolioMethod(t *testing.T) {
	res, err := Compile(codecFuncs(t)[0], Options{File: bankfile.RV2(2), Method: MethodColoring})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodPortfolio, MethodPortfolio + 1, -1} {
		bad := *res
		bad.Method = m
		enc, err := EncodeResult(&bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeResult(enc); err == nil {
			t.Errorf("method %d decoded", m)
		}
	}
}

// TestCodecDeterministic pins that the map sections (AssignedPhys,
// GroupDispl) do not leak map iteration order into the encoding.
func TestCodecDeterministic(t *testing.T) {
	f := workload.RandomSized(7, 300)
	opts := Options{File: bankfile.Config{NumRegs: 32, NumBanks: 4}, Method: MethodBPC}
	res, err := Compile(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	first, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		enc, err := EncodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, enc) {
			t.Fatalf("encoding %d differs from the first", i)
		}
	}
}

func TestCodecRejectsIncomplete(t *testing.T) {
	if _, err := EncodeResult(nil); err == nil {
		t.Error("nil result encoded")
	}
	if _, err := EncodeResult(&Result{}); err == nil {
		t.Error("empty result encoded")
	}
	f := workload.RandomSized(9, 40)
	res, err := Compile(f, Options{File: bankfile.Config{NumRegs: 32, NumBanks: 2}, Method: MethodNon})
	if err != nil {
		t.Fatal(err)
	}
	recorded := *res
	allocCopy := *res.Alloc
	allocCopy.Assignments = []regalloc.Assignment{{}}
	recorded.Alloc = &allocCopy
	if _, err := EncodeResult(&recorded); err == nil {
		t.Error("recorded (verify-mode) result encoded")
	}
}

// TestCodecTruncation feeds every proper prefix of a valid encoding to the
// decoder: each must fail cleanly, none may panic.
func TestCodecTruncation(t *testing.T) {
	f := workload.RandomSized(11, 120)
	res, err := Compile(f, Options{File: bankfile.Config{NumRegs: 32, NumBanks: 2}, Method: MethodBPC})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeResult(enc[:i]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded successfully", i, len(enc))
		}
	}
	if _, err := DecodeResult(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Error("trailing garbage decoded successfully")
	}
}

// TestCodecCorruption flips each byte of a valid encoding. A flip may still
// decode (it can land in a don't-care stat), but it must never panic, and a
// successful decode must survive the operations the server performs on a
// disk-served result (print, clone, re-encode).
func TestCodecCorruption(t *testing.T) {
	f := workload.RandomSized(13, 80)
	res, err := Compile(f, Options{File: bankfile.Config{NumRegs: 32, NumBanks: 2}, Method: MethodBPC})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x5a
		dec, err := DecodeResult(mut)
		if err != nil {
			continue
		}
		_ = ir.Print(dec.Func)
		_ = dec.Func.Clone()
		if _, err := EncodeResult(dec); err != nil {
			t.Fatalf("byte %d: decoded result failed to re-encode: %v", i, err)
		}
	}
}

// FuzzDecodeResult asserts the decoder is total: arbitrary input either
// fails with an error or yields a result the serving path can safely
// print, clone and re-encode.
func FuzzDecodeResult(fz *testing.F) {
	for _, instrs := range []int{20, 150} {
		f := workload.RandomSized(int64(instrs), instrs)
		for _, opts := range codecCases() {
			res, err := Compile(f, opts)
			if err != nil {
				continue
			}
			if enc, err := EncodeResult(res); err == nil {
				fz.Add(enc)
				fz.Add(enc[:len(enc)/2])
			}
		}
	}
	fz.Add([]byte("PCR\x01"))
	fz.Add([]byte("PCR\x02"))
	fz.Add([]byte("PCR\x03"))
	fz.Add([]byte{})
	fz.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeResult(data)
		if err != nil {
			return
		}
		_ = ir.Print(res.Func)
		_ = res.Func.Clone()
		if _, err := EncodeResult(res); err != nil {
			t.Fatalf("decoded result failed to re-encode: %v", err)
		}
	})
}
