package experiments

import (
	"fmt"

	"prescount/internal/bankfile"
	"prescount/internal/conflict"
	"prescount/internal/core"
	"prescount/internal/workload"
)

// Fig1Result reproduces Figure 1: the prevalence of bank-conflict
// instructions (a/c) and the conflict vs conflict-free split under
// 2/4/8/16-way interleaved register files with default allocation (b/d).
//
// The paper classifies test binaries; at our scale the unit of
// classification is the function for SPECfp (hundreds of functions, like
// the paper's hundreds of tests) and the kernel program for CNN-KERNEL.
type Fig1Result struct {
	// Suite is "SPECfp" or "CNN-KERNEL".
	Suite string
	// Units is the number of classified units.
	Units int
	// Relevant is the number of conflict-relevant units.
	Relevant int
	// PerBanks maps an interleaving factor to the number of relevant units
	// that remain conflicting (not conflict-free) under default
	// allocation.
	PerBanks map[int]int
	// BankCounts lists the swept interleavings in order.
	BankCounts []int
}

// Fig1 classifies one suite. specLevel selects function-level units
// (SPECfp) versus program-level units (CNN).
func Fig1(s *workload.Suite, functionLevel bool) (*Fig1Result, error) {
	banks := []int{2, 4, 8, 16}
	res := &Fig1Result{Suite: s.Name, PerBanks: map[int]int{}, BankCounts: banks}

	type unit struct {
		name  string
		progs []*workload.Program // one entry; functions filtered by name
		fn    string              // empty for program-level
	}
	var units []unit
	for _, p := range s.Programs {
		if functionLevel {
			for _, f := range p.Funcs() {
				units = append(units, unit{p.Name + "/" + f.Name, []*workload.Program{p}, f.Name})
			}
		} else {
			units = append(units, unit{p.Name, []*workload.Program{p}, ""})
		}
	}
	res.Units = len(units)

	// Relevance is a pre-allocation property: check on the virtual code.
	relevant := make([]bool, len(units))
	for i, u := range units {
		for _, f := range u.progs[0].Funcs() {
			if u.fn != "" && f.Name != u.fn {
				continue
			}
			r := conflict.Analyze(f, bankfile.Config{NumRegs: 1024, NumBanks: 2})
			if r.ConflictRelevant > 0 {
				relevant[i] = true
			}
		}
		if relevant[i] {
			res.Relevant++
		}
	}

	// For each interleaving, compile with the default method and count the
	// units that still conflict. One cache serves all four interleavings
	// (the pipeline prefix is bank-independent).
	cache := newCache()
	for _, bank := range banks {
		file := bankfile.RV1(bank)
		conflicting := 0
		for i, u := range units {
			if !relevant[i] {
				continue
			}
			bad := false
			for _, f := range u.progs[0].Funcs() {
				if u.fn != "" && f.Name != u.fn {
					continue
				}
				cr, err := core.Compile(f, core.Options{File: file, Method: core.MethodNon, Cache: cache})
				if err != nil {
					return nil, err
				}
				if cr.Report.StaticConflicts > 0 {
					bad = true
				}
			}
			if bad {
				conflicting++
			}
		}
		res.PerBanks[bank] = conflicting
	}
	return res, nil
}

// String renders the Figure 1 panels as text.
func (r *Fig1Result) String() string {
	t := &table{header: []string{"SUITE", "UNITS", "RELEVANT", "REL%"}}
	t.addRow(r.Suite, itoa(int64(r.Units)), itoa(int64(r.Relevant)),
		pct(float64(r.Relevant)/float64(r.Units)))
	out := t.String() + "\n"
	t2 := &table{header: []string{"N-WAY", "CONFLICT", "CONFLICT-FREE", "CONFLICT%ofREL"}}
	for _, b := range r.BankCounts {
		c := r.PerBanks[b]
		t2.addRow(fmt.Sprintf("%d", b), itoa(int64(c)), itoa(int64(r.Relevant-c)),
			pct(float64(c)/float64(maxi(1, r.Relevant))))
	}
	return out + t2.String()
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Table1Row is one suite-characteristics row (paper Table I).
type Table1Row struct {
	// Name is the benchmark or kernel-category name.
	Name string
	// Exes, Mods, Fns are structural counts.
	Exes, Mods, Fns int
	// Reles is the conflict-relevant instruction count (geometric mean per
	// executable for CNN categories, total for SPECfp, as in the paper).
	Reles float64
	// Sp32 and Sp1k are spill instruction counts under default allocation
	// with 32 and 1024 FP registers (2 banks).
	Sp32, Sp1k float64
}

// Table1 computes suite characteristics.
func Table1() ([]Table1Row, error) {
	var rows []Table1Row
	cache := newCache()

	spec := workload.SPECfp()
	for _, p := range spec.Programs {
		row := Table1Row{Name: "SPECfp." + p.Category, Exes: 1, Mods: len(p.Modules), Fns: p.NumFuncs()}
		for _, cfgCase := range []struct {
			regs int
			dst  *float64
		}{{32, &row.Sp32}, {1024, &row.Sp1k}} {
			file := bankfile.Config{NumRegs: cfgCase.regs, NumBanks: 2, NumSubgroups: 1, ReadPorts: 1}
			c, err := CompileProgram(p, core.Options{File: file, Method: core.MethodNon, Cache: cache}, false, false)
			if err != nil {
				return nil, err
			}
			*cfgCase.dst = float64(c.SpillInstrs)
			row.Reles = float64(c.Reles)
		}
		rows = append(rows, row)
	}

	cnn := workload.CNN()
	for _, cat := range cnn.Categories() {
		row := Table1Row{Name: "CNN." + cat}
		// Geometric means over the category's conflict-relevant
		// executables, mirroring the paper's footnote.
		var logReles, logSp32, logSp1k float64
		n := 0
		var mods, fns int
		for _, p := range cnn.Programs {
			if p.Category != cat {
				continue
			}
			row.Exes++
			mods += len(p.Modules)
			fns += p.NumFuncs()
			c32, err := CompileProgram(p, core.Options{
				File: bankfile.Config{NumRegs: 32, NumBanks: 2, NumSubgroups: 1, ReadPorts: 1}, Method: core.MethodNon, Cache: cache,
			}, false, false)
			if err != nil {
				return nil, err
			}
			c1k, err := CompileProgram(p, core.Options{File: bankfile.RV1(2), Method: core.MethodNon, Cache: cache}, false, false)
			if err != nil {
				return nil, err
			}
			if c32.Reles == 0 {
				continue
			}
			n++
			logReles += logOf(float64(c32.Reles))
			logSp32 += logOf(float64(c32.SpillInstrs) + 1)
			logSp1k += logOf(float64(c1k.SpillInstrs) + 1)
		}
		if n > 0 {
			row.Reles = expOf(logReles / float64(n))
			row.Sp32 = expOf(logSp32/float64(n)) - 1
			row.Sp1k = expOf(logSp1k/float64(n)) - 1
		}
		if row.Exes > 0 {
			row.Mods = mods / row.Exes
			row.Fns = fns / row.Exes
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table1String renders Table I.
func Table1String(rows []Table1Row) string {
	t := &table{header: []string{"Benchmark", "Exes", "Mods", "Fns", "Reles", "Sp32", "Sp1k"}}
	for _, r := range rows {
		t.addRow(r.Name, itoa(int64(r.Exes)), itoa(int64(r.Mods)), itoa(int64(r.Fns)),
			ftoa(r.Reles), ftoa(r.Sp32), ftoa(r.Sp1k))
	}
	return t.String()
}
