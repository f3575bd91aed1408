package bankfile

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestFig6Numbering(t *testing.T) {
	// Figure 6's 2-bank x 4-subgroup example:
	// bank = (r mod 8) / 4, subgroup = r mod 4.
	c := DSA(1024)
	for r := 0; r < 64; r++ {
		wantBank := (r % 8) / 4
		wantSub := r % 4
		if got := c.Bank(r); got != wantBank {
			t.Errorf("Bank(%d) = %d, want %d", r, got, wantBank)
		}
		if got := c.Subgroup(r); got != wantSub {
			t.Errorf("Subgroup(%d) = %d, want %d", r, got, wantSub)
		}
	}
	// Paper's Figure 7 register facts: vr1=0/1, vr5=1/1, vr9=0/1, vr10=0/2,
	// vr13=1/1.
	checks := []struct{ r, bank, sub int }{
		{1, 0, 1}, {5, 1, 1}, {9, 0, 1}, {10, 0, 2}, {13, 1, 1},
	}
	for _, ch := range checks {
		if c.Bank(ch.r) != ch.bank || c.Subgroup(ch.r) != ch.sub {
			t.Errorf("r%d = %d/%d, want %d/%d", ch.r, c.Bank(ch.r), c.Subgroup(ch.r), ch.bank, ch.sub)
		}
	}
}

func TestInterleavingDegeneratesWithoutSubgroups(t *testing.T) {
	for _, banks := range []int{2, 4, 8, 16} {
		c := RV1(banks)
		for r := 0; r < 64; r++ {
			if got := c.Bank(r); got != r%banks {
				t.Errorf("banks=%d: Bank(%d) = %d, want %d", banks, r, got, r%banks)
			}
			if got := c.Subgroup(r); got != 0 {
				t.Errorf("banks=%d: Subgroup(%d) = %d, want 0", banks, r, got)
			}
		}
	}
}

func TestValidate(t *testing.T) {
	good := []Config{RV1(2), RV1(4), RV1(8), RV2(2), RV2(4), DSA(1024), DSA(64)}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%v) = %v, want nil", c, err)
		}
	}
	bad := []Config{
		{NumRegs: 0, NumBanks: 2, NumSubgroups: 1, ReadPorts: 1},
		{NumRegs: 32, NumBanks: 0, NumSubgroups: 1, ReadPorts: 1},
		{NumRegs: 32, NumBanks: 2, NumSubgroups: 0, ReadPorts: 1},
		{NumRegs: 32, NumBanks: 2, NumSubgroups: 1, ReadPorts: 0},
		{NumRegs: 30, NumBanks: 4, NumSubgroups: 1, ReadPorts: 1}, // not divisible
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%v) accepted invalid config", c)
		}
	}
}

func TestNormalize(t *testing.T) {
	c := Config{NumRegs: 32, NumBanks: 2}.Normalize()
	if c.NumSubgroups != 1 || c.ReadPorts != 1 {
		t.Errorf("Normalize left zero fields: %+v", c)
	}
}

func TestRegsInBankPartition(t *testing.T) {
	for _, c := range []Config{RV1(4), RV2(2), DSA(64)} {
		seen := map[int]bool{}
		for b := 0; b < c.NumBanks; b++ {
			regs := c.RegsInBank(b)
			if len(regs) != c.RegsPerBank() {
				t.Errorf("%v bank %d: %d regs, want %d", c, b, len(regs), c.RegsPerBank())
			}
			for _, r := range regs {
				if seen[r] {
					t.Errorf("%v: register %d in two banks", c, r)
				}
				seen[r] = true
			}
		}
		if len(seen) != c.NumRegs {
			t.Errorf("%v: banks cover %d regs, want %d", c, len(seen), c.NumRegs)
		}
	}
}

func TestRegsConforming(t *testing.T) {
	c := DSA(64)
	regs := c.RegsConforming(1, 2)
	if len(regs) != c.RegsPerSubgroup() {
		t.Fatalf("conforming count = %d, want %d", len(regs), c.RegsPerSubgroup())
	}
	for _, r := range regs {
		if c.Bank(r) != 1 || c.Subgroup(r) != 2 {
			t.Errorf("register %d does not conform to bank 1 / subgroup 2", r)
		}
		if r%8 != 4*1+2 {
			t.Errorf("register %d: expected residue 6 mod 8", r)
		}
	}
	// Wildcard subgroup returns the whole bank.
	all := c.RegsConforming(0, -1)
	if len(all) != c.RegsPerBank() {
		t.Errorf("wildcard conforming = %d, want %d", len(all), c.RegsPerBank())
	}
}

// conformingByFilter is RegsConforming as the Conforms filter states it.
func conformingByFilter(c Config, bank, subgroup int) []int {
	var out []int
	for r := 0; r < c.NumRegs; r++ {
		if c.Conforms(r, bank, subgroup) {
			out = append(out, r)
		}
	}
	return out
}

// TestRegsConformingMatchesConforms compares the strided list with the
// Conforms filter for every file shape up to 64 registers (multiple of
// banks × subgroups or not) and for RV1(4) and DSA(1024), over every bank
// and subgroup plus out-of-range ones; a file without banks or subgroups
// has no list. RV1(4)'s list is allocated once.
func TestRegsConformingMatchesConforms(t *testing.T) {
	files := []Config{RV1(4), DSA(1024)}
	for regs := 0; regs <= 64; regs++ {
		for banks := 1; banks <= 8; banks++ {
			for subs := 1; subs <= 4; subs++ {
				files = append(files, Config{NumRegs: regs, NumBanks: banks, NumSubgroups: subs, ReadPorts: 1})
			}
		}
	}
	for _, c := range files {
		for bank := -1; bank <= c.NumBanks; bank++ {
			for sub := -1; sub <= c.NumSubgroups; sub++ {
				got, want := c.RegsConforming(bank, sub), conformingByFilter(c, bank, sub)
				if !slices.Equal(got, want) || (got == nil) != (want == nil) {
					t.Fatalf("%d regs %v: RegsConforming(%d, %d) = %v, Conforms filter %v", c.NumRegs, c, bank, sub, got, want)
				}
			}
		}
	}
	for _, c := range []Config{{NumRegs: 32, NumBanks: 0, NumSubgroups: 1}, {NumRegs: 32, NumBanks: 2, NumSubgroups: 0}} {
		if got := c.RegsConforming(0, -1); got != nil {
			t.Errorf("%+v: RegsConforming = %v, want nil", c, got)
		}
	}
	rv1 := RV1(4)
	if got := testing.AllocsPerRun(20, func() { _ = rv1.RegsConforming(1, -1) }); got != 1 {
		t.Errorf("RV1(4) RegsConforming made %v allocations, want 1", got)
	}
}

// quick-check: every register belongs to exactly one (bank, subgroup) cell
// and cell sizes are equal.
func TestPartitionQuick(t *testing.T) {
	check := func(bankSel, subSel uint8) bool {
		banks := []int{1, 2, 4, 8, 16}[int(bankSel)%5]
		subs := []int{1, 2, 4}[int(subSel)%3]
		c := Config{NumRegs: 64 * banks * subs, NumBanks: banks, NumSubgroups: subs, ReadPorts: 1}
		if err := c.Validate(); err != nil {
			return false
		}
		counts := map[[2]int]int{}
		for r := 0; r < c.NumRegs; r++ {
			b, s := c.Bank(r), c.Subgroup(r)
			if b < 0 || b >= banks || s < 0 || s >= subs {
				return false
			}
			counts[[2]int{b, s}]++
		}
		for _, n := range counts {
			if n != c.RegsPerSubgroup() {
				return false
			}
		}
		return len(counts) == banks*subs
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	if got := RV1(4).String(); got != "1024r/4b" {
		t.Errorf("String = %q", got)
	}
	if got := DSA(1024).String(); got != "1024r/2b x 4sg" {
		t.Errorf("String = %q", got)
	}
}
