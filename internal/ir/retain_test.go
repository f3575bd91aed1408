package ir_test

import (
	"testing"
	"unsafe"

	"prescount/internal/ir"
	"prescount/internal/workload"
)

// TestParsedNamesOwnTheirBytes pins that Parse and ParseModule copy every
// name out of the source: a function name, block label or module name
// that is a substring of the source keeps the whole source alive for as
// long as the name lives, and the daemon's compile cache keeps names of
// parsed requests for the life of an entry.
func TestParsedNamesOwnTheirBytes(t *testing.T) {
	inside := func(s, src string) bool {
		if len(s) == 0 {
			return false
		}
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		base := uintptr(unsafe.Pointer(unsafe.StringData(src)))
		return p >= base && p < base+uintptr(len(src))
	}
	checkFunc := func(label, src string, f *ir.Func) {
		if inside(f.Name, src) {
			t.Errorf("%s: function name %q points into the source", label, f.Name)
		}
		for _, b := range f.Blocks {
			if inside(b.Name, src) {
				t.Errorf("%s: block label %q of @%s points into the source", label, b.Name, f.Name)
			}
		}
	}

	one := ir.Print(workload.RandomSized(1, 120))
	f, err := ir.Parse(one)
	if err != nil {
		t.Fatal(err)
	}
	checkFunc("Parse", one, f)

	other := ir.Print(workload.SPECfp().Programs[0].Funcs()[0])
	for _, src := range []string{one + other, "module pair\n" + one + other} {
		m, err := ir.ParseModule(src)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Funcs) != 2 {
			t.Fatalf("ParseModule: %d functions, want 2", len(m.Funcs))
		}
		if inside(m.Name, src) {
			t.Errorf("ParseModule: module name %q points into the source", m.Name)
		}
		for _, f := range m.SortedFuncs() {
			checkFunc("ParseModule", src, f)
		}
	}
}
