package ir

import (
	"strings"
	"testing"
)

// malformedCase is one malformed source and a substring its error must
// contain.
type malformedCase struct {
	name, src, want string
}

// malformedSources is the untrusted-input table of Parse. The
// differential tests and FuzzParse replay it against the reference parser.
var malformedSources = []malformedCase{
	{"empty", "", "empty input"},
	{"comment only", "# nothing here\n", "empty input"},
	{"no header", "entry:\n  ret\n", "expected 'func @name {'"},
	{"missing brace", "func @f {\n entry:\n  ret\n", "missing closing brace"},
	{"instr before label", "func @f {\n  ret\n}", "instruction before any label"},
	{"unknown opcode", "func @f {\n entry:\n  frob %1\n}", "unknown opcode"},
	{"unknown class", "func @f {\n entry:\n  %0:vec = fconst 1\n  ret\n}", "unknown class"},
	{"negative vreg def", "func @f {\n entry:\n  %-1:fp = fconst 1\n  ret\n}", "out of range"},
	{"negative vreg use", "func @f {\n entry:\n  %0:fp = fmov %-5\n  ret\n}", "out of range"},
	{"huge vreg", "func @f {\n entry:\n  %9999999:fp = fconst 1\n  ret\n}", "out of range"},
	{"huge fpr", "func @f {\n entry:\n  f2147483000 = fconst 1\n  ret\n}", "bad FP register"},
	{"huge gpr", "func @f {\n entry:\n  x99 = iconst 1\n  ret\n}", "bad GPR"},
	{"negative fpr", "func @f {\n entry:\n  f-1 = fconst 1\n  ret\n}", "bad FP register"},
	{"bad operand", "func @f {\n entry:\n  %0:fp = fmov banana\n  ret\n}", "bad register operand"},
	{"missing operand", "func @f {\n entry:\n  %0:fp = fadd %1\n  ret\n}", "need at least"},
	{"extra operand", "func @f {\n entry:\n  %0:fp = fmov %1, %2, %3\n  ret\n}", "extra operands"},
	{"missing imm", "func @f {\n entry:\n  %0:gpr = iconst\n  ret\n}", "missing immediate"},
	{"bad imm", "func @f {\n entry:\n  %0:gpr = iconst twelve\n  ret\n}", "bad immediate"},
	{"bad fimm", "func @f {\n entry:\n  %0:fp = fconst pi\n  ret\n}", "bad float immediate"},
	{"unknown successor", "func @f {\n entry:\n  br nowhere\n}", "unknown successor"},
	{"bad trip", "func @f {\n entry: !trip=lots\n  ret\n}", "bad trip count"},
	{"unknown block meta", "func @f {\n entry: !hot\n  ret\n}", "unknown block metadata"},
	{"empty block", "func @f {\n entry:\n dead:\n  ret\n}", "empty block"},
	{"missing terminator", "func @f {\n entry:\n  %0:fp = fconst 1\n}", "terminator"},
	{"class mismatch", "func @f {\n entry:\n  %0:gpr = fconst 1\n  ret\n}", "class"},
	// A line of 1 MiB or more is rejected with its line number, not
	// taken for the end of the input.
	{"long line", "func @f {\n entry:\n  ret\n# " + strings.Repeat("x", maxLineBytes) + "\n}", "parse line 4: line too long (limit 1 MiB)"},
	{"long first line", strings.Repeat(" ", maxLineBytes) + "\nfunc @f {\n entry:\n  ret\n}", "parse line 1: line too long (limit 1 MiB)"},
}

// TestParseMalformedReturnsError is the untrusted-input contract of the
// parser: every malformed source in the table returns an error — it never
// panics (the daemon feeds client-supplied bytes straight into Parse) and
// never silently succeeds.
func TestParseMalformedReturnsError(t *testing.T) {
	for _, tc := range malformedSources {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Parse(%q) panicked: %v", tc.src, r)
				}
			}()
			f, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse accepted malformed source, got func %q", f.Name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// malformedModules is the module-level untrusted-input table.
var malformedModules = []malformedCase{
	{"unterminated func", "module m\nfunc @f {\n entry:\n  ret\n", "unterminated function"},
	{"bad inner func", "module m\nfunc @f {\n entry:\n  frob\n}\n", "unknown opcode"},
}

// TestParseModuleMalformedReturnsError covers the module-level error paths.
func TestParseModuleMalformedReturnsError(t *testing.T) {
	for _, tc := range malformedModules {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseModule(tc.src); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ParseModule error = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestParseBoundsAccepted pins the in-range edges of the new operand
// bounds: the largest legal indices still parse.
func TestParseBoundsAccepted(t *testing.T) {
	src := "func @f {\n entry:\n  f1023 = fmov f0\n  x31 = imov x0\n  ret\n}"
	if _, err := Parse(src); err != nil {
		t.Fatalf("in-range physical registers rejected: %v", err)
	}
}
