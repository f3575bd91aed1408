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
