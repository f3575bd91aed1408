package ir

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// The tests in this file hold the single-pass parser and the append-based
// formatter to the code they replaced (reference_test.go): on every input
// both parsers fail with the same error string, or both succeed with the
// same printed text, fingerprint and vreg table, and both printers and
// canonical forms produce the same bytes.

// samePrint fails t unless Print and Fingerprint of f equal the reference
// printer's text and the reference canonical form's hash.
func samePrint(t testing.TB, f *Func) {
	t.Helper()
	if got, want := Print(f), referencePrint(f); got != want {
		t.Fatalf("Print differs from the reference printer:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if got, want := f.Fingerprint(), referenceFingerprint(f); got != want {
		t.Fatalf("Fingerprint %v, reference %v", got, want)
	}
}

// sameFunc fails t unless f (from the new parser) and g (from the
// reference parser) print, hash and number their vregs alike.
func sameFunc(t testing.TB, f, g *Func) {
	t.Helper()
	if got, want := Print(f), referencePrint(g); got != want {
		t.Fatalf("parsed functions print differently:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if got, want := f.Fingerprint(), referenceFingerprint(g); got != want {
		t.Fatalf("parsed fingerprint %v, reference %v", got, want)
	}
	if !slices.Equal(f.VRegs, g.VRegs) {
		t.Fatalf("vreg tables differ: %v vs reference %v", f.VRegs, g.VRegs)
	}
}

// sameParse fails t unless Parse and referenceParse agree on src.
func sameParse(t testing.TB, src string) {
	t.Helper()
	f, err := Parse(src)
	g, rerr := referenceParse(src)
	switch {
	case err != nil && rerr != nil:
		if err.Error() != rerr.Error() {
			t.Fatalf("Parse error %q, reference %q", err, rerr)
		}
	case err != nil || rerr != nil:
		t.Fatalf("Parse error %v, reference error %v", err, rerr)
	default:
		sameFunc(t, f, g)
	}
}

// sameParseModule fails t unless ParseModule and referenceParseModule
// agree on src.
func sameParseModule(t testing.TB, src string) {
	t.Helper()
	m, err := ParseModule(src)
	r, rerr := referenceParseModule(src)
	switch {
	case err != nil && rerr != nil:
		if err.Error() != rerr.Error() {
			t.Fatalf("ParseModule error %q, reference %q", err, rerr)
		}
		return
	case err != nil || rerr != nil:
		t.Fatalf("ParseModule error %v, reference error %v", err, rerr)
	}
	if m.Name != r.Name || !slices.Equal(m.FuncNames(), r.FuncNames()) {
		t.Fatalf("module %q %v, reference %q %v", m.Name, m.FuncNames(), r.Name, r.FuncNames())
	}
	for _, n := range m.FuncNames() {
		sameFunc(t, m.Funcs[n], r.Funcs[n])
	}
	if got, want := PrintModule(m), referencePrintModule(r); got != want {
		t.Fatalf("PrintModule differs:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// textEdgeCases are sources at the corners of the grammar: line endings,
// whitespace, comments, reopened and empty labels, inline and annotated
// successors, immediates strconv reads specially, and trailing input.
var textEdgeCases = []string{
	"func @f {\r\n entry:\r\n  ret\r\n}\r\n",
	"func @f {\n\tentry:\n\t\t%0:fp = fconst 1\n\t\tret\n}",
	"func @f {\n a:\n b:\n  ret\n a:\n  ret\n}",
	"func @f {\n a:\n  %0:fp = fconst 1\n b:\n  ret\n a:\n  ret\n}",
	"func @f {\n a:\n  br b\n b:\n  x1 = iconst 0\n a:\n  %0:fp = fconst 2\n b:\n  ret\n}",
	"func @f {\n :\n  br ; succs:\n}",
	"func @f {\n entry:\n  br exit ; succs: exit\n exit:\n  ret\n}",
	"func @f {\n entry:\n  br ; succs: exit, exit\n exit:\n  ret\n}",
	"func @f {\n entry:\n  br ; succs: nowhere\n  br ; succs: entry\n}",
	"func @f {\n entry:\n  %0:fp, %1:fp = fadd %2, %3\n  ret\n}",
	"func @f {\n entry:\n  ret\n}\ngarbage\n",
	"func @f {\n entry:\n  %0:fp = fconst 1 ; note\n  ret ; done\n}",
	"func @f {\n entry:\n  br x ;c ; succs: x\n x:\n  ret\n}",
	"func @f {\n entry:\n  %0:fp  =  fconst  1\n  ret\n}",
	"func @f {\n entry:\n  %0:fp = fconst 1\n  %1:fp = fmov %0:gpr\n  ret\n}",
	"func @f{\n entry:\n  ret\n}",
	"func @f {\n entry:\n\u00a0 ret\u00a0\n}",
	"func @f {\n entry:\n  %0:fp = fconst NaN\n  %1:fp = fconst +Inf\n  %2:fp = fconst -0\n  %3:fp = fconst -Inf\n  ret\n}",
	"func @f {\n entry:\n  %0:fp = fconst 1e400\n  ret\n}",
	"func @f {\n entry:\n  %0:fp = fconst 0x1p-2\n  %1:fp = fconst 1_000.5\n  ret\n}",
	"func @f {\n entry:\n  %0:gpr = iconst 9223372036854775808\n  ret\n}",
	"func @f {\n entry:\n  %0:gpr = iconst +5\n  x01 = iconst -0\n  ret\n}",
	"func @f {\n entry:\n  %0:fp = fconst 1\n  %1:fp = fadd %0,,%0\n  ret\n}",
	"func @f {\n entry:\n  x1 = iconst 0\n  condbr x1, a, b\n a:\n  ret\n b:\n  ret\n}",
	"func @f {\n entry:\n  ret\n  }  \n",
	"func @f {\n entry:\n  %1:fp = fadd %0, %0\n  ret\n}",
	"func @f {\n#\n entry: !trip=5\n  ret\n}",
	"func @f {\n entry :\n  ret\n}",
	"func @f {\n a:b:\n  ret\n}",
	"func @f {\n entry: !trip=3 !x\n  ret\n}",
	"func @f {\n entry:\n  %0 = fconst 1\n  %1 = iconst 2\n  %2 = ret\n}",
	"func @f {\n entry:\n  %0:fp = fconst 1\n  %3:fp = fmov %0\n  ret\n}",
	"func @f {\n entry:\n  f1023 = fconst 1\n  x31 = iconst 7\n  fstore f1023, x31, -3\n  ret\n}",
	"func @f {\n entry:\n  %0:fp = freload 2\n  fspill %0, 2\n  %1:gpr = ireload 1\n  ispill %1, 1\n  call\n  nop\n  ret\n}",
	"func @ {\n entry:\n  ret\n}",
	"func @f {\n}",
	"func @f {",
	"func @f {\n entry:\n  %1048576:fp = fconst 1\n  ret\n}",
	"func @f {\n entry:\n  f1048577 = fconst 1\n  ret\n}",
	"func @f {\n entry:\n  %:fp = fconst 1\n  ret\n}",
	"func @f {\n entry:\n  br\n}",
	"func @f {\n entry:\n  fadd\tx, y\n  ret\n}",
	"module m\n",
	"module a\nmodule b\nfunc @f {\n entry:\n  ret\n}\nfunc @g {\n entry:\n  ret\n}\n",
	"  module   spaced  \nfunc @f {\n entry:\n  ret\n}",
	"# module x\nfunc @f {\n entry:\n  ret\n}",
	"func @f {\n entry:\n  ret\n}\nfunc @f {\n entry:\n  nop\n  ret\n}",
}

// fuzzParseCompileSeeds are the seeds of FuzzParseCompile (the root
// package's daemon-input fuzz target), replayed here against the
// reference parser.
var fuzzParseCompileSeeds = []string{
	"",
	"func @f {\n entry:\n  ret\n}",
	"func @f {\n entry:\n  %0:fp = fconst 1\n  %1:fp = fadd %0, %0\n  ret\n}",
	"module m\nfunc @a {\n entry:\n  x1 = iconst 0\n  %0:fp = fload x1, 0\n  fstore %0, x1, 1\n  ret\n}\nfunc @b {\n entry:\n  ret\n}",
	"func @loop {\n entry:\n  x1 = iconst 0\n  x2 = iconst 8\n  br body\n body: !trip=8\n  %0:fp = fload x1, 0\n  %1:fp = fmul %0, %0\n  fstore %1, x1, 8\n  x1 = iaddi x1, 1\n  x3 = icmplt x1, x2\n  condbr x3, body, done\n done:\n  ret\n}",
	"func @f {\n entry:\n  %-1:fp = fconst 1\n  ret\n}",
	"func @f {\n entry:\n  f2147483000 = fconst 1\n  ret\n}",
	"func @f {\n entry:\n  %999999999 = fmov %0\n  ret\n}",
	"func @f {\n entry:\n  call\n  ret\n}",
	"func @f {\n entry:\n  %0:fp = fma %1, %2, %3\n  ret\n}",
}

// TestDifferentialRandomFunc compares both printers, both canonical forms
// and both parsers on randomFunc's generated functions, whose random
// float immediates exercise the %g formatting.
func TestDifferentialRandomFunc(t *testing.T) {
	check := func(seed int64) bool {
		f := randomFunc(rand.New(rand.NewSource(seed)))
		samePrint(t, f)
		sameParse(t, Print(f))
		return !t.Failed()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDifferentialFloatFormat pins the float immediates whose %g form is
// least regular: signed zero, infinities, NaN, subnormals, the exponent
// switch points and the extremes.
func TestDifferentialFloatFormat(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 1e20, 1e21, 1e-4, 1e-5,
		123456789, 1234567890123456789, 5e-324, math.SmallestNonzeroFloat64, math.MaxFloat64,
		-math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 2.5e-310, 9007199254740993}
	b := NewBuilder("floats")
	for _, v := range vals {
		b.FConst(v)
	}
	b.Ret()
	f := b.Func()
	samePrint(t, f)
	sameParse(t, Print(f))
}

// TestDifferentialMalformed replays both malformed-input tables, the edge
// cases and the FuzzParseCompile seeds through both parsers and both
// module readers.
func TestDifferentialMalformed(t *testing.T) {
	var srcs []string
	for _, tc := range malformedSources {
		srcs = append(srcs, tc.src)
	}
	for _, tc := range malformedModules {
		srcs = append(srcs, tc.src)
	}
	srcs = append(srcs, textEdgeCases...)
	srcs = append(srcs, fuzzParseCompileSeeds...)
	for _, src := range srcs {
		sameParse(t, src)
		sameParseModule(t, src)
	}
}

// TestParseLineLimit pins the line limit's edges: a line one byte under
// 1 MiB parses, with or without a final newline; a line of 1 MiB fails
// with its line number, and a carriage return counts toward the limit, in
// both parsers.
func TestParseLineLimit(t *testing.T) {
	const head = "func @f {\n entry:\n  ret\n"
	for _, tc := range []struct {
		src, want string
	}{
		{"func @f {\n entry:\n" + strings.Repeat("#", maxLineBytes-1) + "\n  ret\n}", ""},
		{head + strings.Repeat(" ", maxLineBytes-2) + "}", ""},
		{"#" + strings.Repeat(" ", maxLineBytes-2) + "\n" + head + "}", ""},
		{"func @f {\n" + strings.Repeat("#", maxLineBytes) + "\n entry:\n  ret\n}", "ir: parse line 2: line too long (limit 1 MiB)"},
		{head + strings.Repeat(" ", maxLineBytes-1) + "}", "ir: parse line 4: line too long (limit 1 MiB)"},
		{head + strings.Repeat(" ", maxLineBytes-1) + "\r\n}", "ir: parse line 4: line too long (limit 1 MiB)"},
	} {
		_, err := Parse(tc.src)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || err.Error() != tc.want) {
			t.Errorf("Parse(%d-byte source) error %v, want %q", len(tc.src), err, tc.want)
		}
		sameParse(t, tc.src)
	}
}

// TestParseSlabAppendIsolation appends to every instruction list and
// operand list of a parsed function, then checks that the function still
// prints the same: sub-slices of the parser's slabs are capped at their own
// length, so an append reallocates instead of writing into a neighbour.
// The large function spans several slabs and has blocks longer than one.
func TestParseSlabAppendIsolation(t *testing.T) {
	big := NewBuilder("big")
	base := big.IConst(0)
	for i := 0; i < 3; i++ {
		v := big.FConst(1)
		for j := 0; j < slabChunk; j++ {
			v = big.FAdd(v, v)
		}
		big.FStore(v, base, int64(i))
		next := big.Block("b" + string(rune('a'+i)))
		big.Br(next)
		big.SetBlock(next)
	}
	big.Ret()
	for _, src := range []string{Print(buildSAXPY(8)), Print(big.Func())} {
		f, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		want := Print(f)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				_ = append(in.Defs, NoReg)
				_ = append(in.Uses, NoReg)
			}
			_ = append(b.Instrs, &Instr{Op: OpNop})
		}
		if got := Print(f); got != want {
			t.Fatalf("appending to %s's lists changed it", f.Name)
		}
	}
}

// FuzzParse is the differential fuzz target of the text path: on any
// input, Parse and ParseModule must agree with the reference parser and
// module reader.
func FuzzParse(f *testing.F) {
	for _, tc := range malformedSources {
		if len(tc.src) < 4096 {
			f.Add(tc.src)
		}
	}
	for _, tc := range malformedModules {
		f.Add(tc.src)
	}
	for _, s := range textEdgeCases {
		f.Add(s)
	}
	for _, s := range fuzzParseCompileSeeds {
		f.Add(s)
	}
	f.Add(Print(randomFunc(rand.New(rand.NewSource(1)))))
	f.Fuzz(func(t *testing.T, src string) {
		sameParse(t, src)
		sameParseModule(t, src)
	})
}
