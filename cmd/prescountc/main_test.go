package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const kernelA = `func @alpha {
 entry:
  x1 = iconst 0
  %0:fp = fload x1, 0
  %1:fp = fload x1, 1
  %2:fp = fadd %0, %1
  fstore %2, x1, 2
  ret
}
`

const kernelB = `func @beta {
 entry:
  x1 = iconst 0
  %0:fp = fload x1, 0
  %1:fp = fmul %0, %0
  fstore %1, x1, 3
  ret
}
`

func writeInputs(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	a := filepath.Join(dir, "a.mir")
	b := filepath.Join(dir, "b.mir")
	if err := os.WriteFile(a, []byte(kernelA), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, []byte(kernelB), 0o644); err != nil {
		t.Fatal(err)
	}
	return a, b
}

func runCapture(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, strings.NewReader(""), &out); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return out.String()
}

// TestInputsProcessedInArgvOrder is the regression test for the map-order
// iteration bug: multi-file invocations must report files exactly in
// command-line order, every run, in both orders.
func TestInputsProcessedInArgvOrder(t *testing.T) {
	a, b := writeInputs(t)
	for run := 0; run < 5; run++ {
		out := runCapture(t, a, b)
		ia, ib := strings.Index(out, a+"/alpha"), strings.Index(out, b+"/beta")
		if ia < 0 || ib < 0 || ia > ib {
			t.Fatalf("run %d: argv order (a, b) not respected:\n%s", run, out)
		}
	}
	// Reversed argv reverses the report order — order comes from argv, not
	// from any internal sorting.
	out := runCapture(t, b, a)
	if ia, ib := strings.Index(out, a+"/alpha"), strings.Index(out, b+"/beta"); ia < ib {
		t.Fatalf("reversed argv did not reverse report order:\n%s", out)
	}
}

// TestRunsAreByteIdentical pins full-output determinism across repeated
// runs, including the -o module file.
func TestRunsAreByteIdentical(t *testing.T) {
	a, b := writeInputs(t)
	outPath := filepath.Join(t.TempDir(), "out.mir")
	first := runCapture(t, "-dump", "-o", outPath, a, b)
	firstMod, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if got := runCapture(t, "-dump", "-o", outPath, a, b); got != first {
			t.Fatalf("run %d: stdout differs\n--- first ---\n%s\n--- now ---\n%s", i, first, got)
		}
		mod, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		if string(mod) != string(firstMod) {
			t.Fatalf("run %d: -o module differs", i)
		}
	}
}

// TestStdinFallback keeps the zero-argument stdin path working.
func TestStdinFallback(t *testing.T) {
	var out strings.Builder
	if err := run(nil, strings.NewReader(kernelA), &out); err != nil {
		t.Fatalf("stdin run: %v", err)
	}
	if !strings.Contains(out.String(), "<stdin>/alpha") {
		t.Fatalf("stdin report missing:\n%s", out.String())
	}
}

// TestBadInputReturnsError confirms errors surface as errors (exit path),
// not panics.
func TestBadInputReturnsError(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.mir")
	if err := os.WriteFile(bad, []byte("func @x {\n entry:\n  frob\n}"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{bad}, strings.NewReader(""), &out); err == nil {
		t.Fatal("malformed input did not error")
	}
}

// TestBadBankCountReturnsError: -banks 0 fails as an error naming the
// bank count, not as a panic in bank assignment.
func TestBadBankCountReturnsError(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-banks", "0"}, strings.NewReader(kernelA), &out)
	if err == nil || !strings.Contains(err.Error(), "NumBanks = 0, must be positive") {
		t.Errorf("-banks 0: err = %v, want a NumBanks error", err)
	}
}

// TestUnknownMethodReturnsError: a method name that is not a single method
// or portfolio — including the retired "auto" — fails before compiling.
func TestUnknownMethodReturnsError(t *testing.T) {
	for _, m := range []string{"auto", "alchemy"} {
		var out strings.Builder
		err := run([]string{"-method", m}, strings.NewReader(kernelA), &out)
		if err == nil || !strings.Contains(err.Error(), "unknown method") {
			t.Errorf("-method %s: err = %v, want an unknown-method error", m, err)
		}
	}
}

// TestRetiredFlagReturnsError: the coloring budget is a constant now, so
// its old flag is unknown and fails before compiling.
func TestRetiredFlagReturnsError(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-coloring-timeout", "1s"}, strings.NewReader(kernelA), &out)
	if err == nil || !strings.Contains(err.Error(), "coloring-timeout") {
		t.Errorf("-coloring-timeout: err = %v, want an unknown-flag error", err)
	}
}

// pairModule is a two-function module: a loop whose fma reads three FP
// registers, and a straight-line kernel.
const pairModule = `module pair
func @axpy {
 entry:
  %0 = iconst 0
  %1 = iconst 64
  %2:fp = fconst 2.5
  br loop
 loop: !trip=64
  %3:fp = fload %0, 0
  %4:fp = fload %0, 64
  %5:fp = fma %2, %3, %4
  fstore %5, %0, 64
  %0 = iaddi %0, 1
  %6 = icmplt %0, %1
  condbr %6, loop, done
 done:
  ret
}
` + kernelB

// TestPortfolioRunDumpText pins the whole report of a portfolio compile:
// the winner line, the conflict and spill counts, the allocated MIR and
// the simulated metrics of each function, in name order.
func TestPortfolioRunDumpText(t *testing.T) {
	const want = `<stdin>/axpy: file=32r/2b method=portfolio winner=bpc
  instrs=12 conflict-relevant=1 static-conflicts=1 weighted=64
  spills=0+0 copies=0 subgroup-violations=0
func @axpy {
  entry:
    x0 = iconst 0
    x1 = iconst 64
    f0 = fconst 2.5
    br ; succs: loop
  loop: !trip=64
    f1 = fload x0, 0
    f2 = fload x0, 64
    f1 = fma f0, f1, f2
    fstore f1, x0, 64
    x0 = iaddi x0, 1
    x2 = icmplt x0, x1
    condbr x2 ; succs: loop, done
  done:
    ret
}
  executed=453 cycles=517 dynamic-conflicts=64
<stdin>/beta: file=32r/2b method=portfolio winner=bpc
  instrs=5 conflict-relevant=1 static-conflicts=0 weighted=0
  spills=0+0 copies=0 subgroup-violations=0
func @beta {
  entry:
    x1 = iconst 0
    f0 = fload x1, 0
    f1 = fmul f0, f0
    fstore f1, x1, 3
    ret
}
  executed=5 cycles=5 dynamic-conflicts=0
`
	var out strings.Builder
	if err := run([]string{"-method", "portfolio", "-run", "-dump"}, strings.NewReader(pairModule), &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != want {
		t.Errorf("output differs\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
