package ir

import "strconv"

// Print renders the function in the textual MIR format accepted by Parse.
//
// The format, one instruction per line:
//
//	func @name {
//	  entry:
//	    %0:gpr = iconst 0
//	    br loop2 ; succs: loop2
//	  loop2: !trip=100
//	    %3:fp = fload %1, 4
//	    ...
//	    condbr %9 ; succs: loop2, exit3
//	  exit3:
//	    ret
//	}
func Print(f *Func) string {
	return string(appendFunc(make([]byte, 0, printSize(f)), f))
}

// PrintModule renders every function of the module in name order.
func PrintModule(m *Module) string {
	fs := m.SortedFuncs()
	n := len(m.Name) + 9
	for _, f := range fs {
		n += printSize(f) + 1
	}
	buf := make([]byte, 0, n)
	buf = append(buf, "module "...)
	buf = append(buf, m.Name...)
	buf = append(buf, "\n\n"...)
	for _, f := range fs {
		buf = append(appendFunc(buf, f), '\n')
	}
	return string(buf)
}

// printSize estimates the printed size of f: about 32 bytes per line.
func printSize(f *Func) int {
	n := len(f.Name) + 16
	for _, b := range f.Blocks {
		n += 32 * (len(b.Instrs) + 1)
	}
	return n
}

// appendFunc appends Print's text of f to buf.
func appendFunc(buf []byte, f *Func) []byte {
	buf = append(buf, "func @"...)
	buf = append(buf, f.Name...)
	buf = append(buf, " {\n"...)
	for _, b := range f.Blocks {
		buf = appendBlock(buf, f, b)
	}
	return append(buf, "}\n"...)
}

// appendBlock appends a block's label line and instruction lines. Print
// and the canonical form Fingerprint hashes share it, so the two cannot
// drift apart.
func appendBlock(buf []byte, f *Func, b *Block) []byte {
	buf = append(buf, "  "...)
	buf = append(buf, b.Name...)
	buf = append(buf, ':')
	if b.TripCount != 0 {
		buf = append(buf, " !trip="...)
		buf = strconv.AppendInt(buf, b.TripCount, 10)
	}
	buf = append(buf, '\n')
	for _, in := range b.Instrs {
		buf = append(buf, "    "...)
		buf = appendInstr(buf, f, b, in)
		buf = append(buf, '\n')
	}
	return buf
}

// appendInstr appends one instruction without indentation or newline:
// defs with their classes, the mnemonic, uses, immediates (%d and flag-free
// %g formatting) and, on a terminator, the successor annotation.
func appendInstr(buf []byte, f *Func, b *Block, in *Instr) []byte {
	for i, d := range in.Defs {
		if i > 0 {
			buf = append(buf, ", "...)
		}
		buf = d.appendText(buf)
		if d.IsVirt() {
			buf = append(buf, ':')
			buf = append(buf, f.VRegs[d.VirtIndex()].Class.String()...)
		}
	}
	if len(in.Defs) > 0 {
		buf = append(buf, " = "...)
	}
	buf = append(buf, in.Op.String()...)
	sep := " "
	for _, u := range in.Uses {
		buf = u.appendText(append(buf, sep...))
		sep = ", "
	}
	if in.Op.HasImm() {
		buf = strconv.AppendInt(append(buf, sep...), in.Imm, 10)
		sep = ", "
	}
	if in.Op.HasFImm() {
		buf = strconv.AppendFloat(append(buf, sep...), in.FImm, 'g', -1, 64)
	}
	if in.Op.IsTerminator() && len(b.Succs) > 0 {
		buf = append(buf, " ; succs: "...)
		for i, s := range b.Succs {
			if i > 0 {
				buf = append(buf, ", "...)
			}
			buf = append(buf, s.Name...)
		}
	}
	return buf
}
