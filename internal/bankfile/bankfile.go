// Package bankfile models a multi-banked (optionally bank-subgrouped)
// register file with interleaved register indexes, following Figure 6 of the
// paper: for a file of B banks and S subgroups per bank,
//
//	bank(r)     = (r mod B·S) ÷ S
//	subgroup(r) = r mod S
//
// With S = 1 this degenerates to the classic N-way interleaving
// bank(r) = r mod B used for the Platform-RV experiments. The package also
// answers conformance queries used by the allocator's hinting (Algorithm 2's
// FindAllRegistersConforming).
package bankfile

import "fmt"

// Config describes one register-file configuration of the FP class.
type Config struct {
	// NumRegs is the number of physical FP registers
	// (1024 for Platform-RV#1, 32 for Platform-RV#2, 1024 for the DSA).
	NumRegs int
	// NumBanks is the number of banks (2/4/8/16 in the paper's settings).
	NumBanks int
	// NumSubgroups is the number of subgroups per bank; 1 means no
	// subgrouping (non-DSA platforms). The DSA uses 2 banks × 4 subgroups.
	NumSubgroups int
	// ReadPorts is the number of simultaneous reads one bank serves per
	// cycle; the paper's conflict model assumes 1.
	ReadPorts int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.NumRegs <= 0 {
		return fmt.Errorf("bankfile: NumRegs = %d, must be positive", c.NumRegs)
	}
	if c.NumBanks <= 0 {
		return fmt.Errorf("bankfile: NumBanks = %d, must be positive", c.NumBanks)
	}
	if c.NumSubgroups <= 0 {
		return fmt.Errorf("bankfile: NumSubgroups = %d, must be positive", c.NumSubgroups)
	}
	if c.ReadPorts <= 0 {
		return fmt.Errorf("bankfile: ReadPorts = %d, must be positive", c.ReadPorts)
	}
	if c.NumRegs%(c.NumBanks*c.NumSubgroups) != 0 {
		return fmt.Errorf("bankfile: NumRegs %d not a multiple of banks*subgroups %d",
			c.NumRegs, c.NumBanks*c.NumSubgroups)
	}
	return nil
}

// Normalize fills zero fields with defaults (1 subgroup, 1 read port).
func (c Config) Normalize() Config {
	if c.NumSubgroups == 0 {
		c.NumSubgroups = 1
	}
	if c.ReadPorts == 0 {
		c.ReadPorts = 1
	}
	return c
}

// RV1 returns the Platform-RV Setting #1 file: 1024 FP registers split into
// the given number of banks.
func RV1(banks int) Config {
	return Config{NumRegs: 1024, NumBanks: banks, NumSubgroups: 1, ReadPorts: 1}
}

// RV2 returns the Platform-RV Setting #2 file: the riscv-64 budget of 32 FP
// registers split into the given number of banks.
func RV2(banks int) Config {
	return Config{NumRegs: 32, NumBanks: banks, NumSubgroups: 1, ReadPorts: 1}
}

// DSA returns the 2-bank × 4-subgroup register file of the paper's AI DSA
// (Figure 6), sized regs registers.
func DSA(regs int) Config {
	return Config{NumRegs: regs, NumBanks: 2, NumSubgroups: 4, ReadPorts: 1}
}

// Bank returns the bank number of physical FP register index r.
func (c Config) Bank(r int) int {
	period := c.NumBanks * c.NumSubgroups
	return (r % period) / c.NumSubgroups
}

// Subgroup returns the subgroup number of physical FP register index r.
func (c Config) Subgroup(r int) int { return r % c.NumSubgroups }

// Conforms reports whether register index r lives in the given bank and
// subgroup (Algorithm 2's conformance predicate). Pass subgroup < 0 to
// match any subgroup.
func (c Config) Conforms(r, bank, subgroup int) bool {
	if c.Bank(r) != bank {
		return false
	}
	return subgroup < 0 || c.Subgroup(r) == subgroup
}

// RegsInBank returns the physical register indexes belonging to bank, in
// increasing order.
func (c Config) RegsInBank(bank int) []int { return c.RegsConforming(bank, -1) }

// RegsConforming returns the register indexes in the given bank and
// subgroup, in increasing order (Algorithm 2's FindAllRegistersConforming).
// subgroup < 0 matches any subgroup. Bank b's subgroup s holds the
// registers k·B·S + b·S + s, so the list is counted from the file shape,
// allocated once and filled by stride. A file without a positive bank and
// subgroup count has no conforming registers: nil.
func (c Config) RegsConforming(bank, subgroup int) []int {
	sg := c.NumSubgroups
	if c.NumBanks <= 0 || sg <= 0 || bank < 0 || bank >= c.NumBanks || subgroup >= sg {
		return nil
	}
	lo, hi := 0, sg // the subgroups matched
	if subgroup >= 0 {
		lo, hi = subgroup, subgroup+1
	}
	period, first := c.NumBanks*sg, bank*sg
	n := 0
	for s := lo; s < hi; s++ {
		if r := first + s; r < c.NumRegs {
			n += (c.NumRegs-1-r)/period + 1
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for base := first; base < c.NumRegs; base += period {
		for r := base + lo; r < base+hi && r < c.NumRegs; r++ {
			out = append(out, r)
		}
	}
	return out
}

// RegsPerBank returns the number of registers in each bank.
func (c Config) RegsPerBank() int { return c.NumRegs / c.NumBanks }

// RegsPerSubgroup returns the number of registers per (bank, subgroup)
// pair.
func (c Config) RegsPerSubgroup() int {
	return c.NumRegs / (c.NumBanks * c.NumSubgroups)
}

// HasSubgroups reports whether the file imposes the subgroup alignment
// constraint (DSA-style, paper §III-C).
func (c Config) HasSubgroups() bool { return c.NumSubgroups > 1 }

// String renders the configuration, e.g. "1024r/4b" or "1024r/2b x 4sg".
func (c Config) String() string {
	if c.HasSubgroups() {
		return fmt.Sprintf("%dr/%db x %dsg", c.NumRegs, c.NumBanks, c.NumSubgroups)
	}
	return fmt.Sprintf("%dr/%db", c.NumRegs, c.NumBanks)
}
