package ir

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file keeps the line-scanner parser and the fmt-based printer that
// the single-pass parser and the append-based formatter replaced. They are
// the oracles of the differential tests (differential_test.go): the new
// code must accept and reject the same sources with the same error
// strings, print the same bytes and hash the same canonical form. The only
// change from the replaced code is that the scanner's error is checked, so
// a line of 1 MiB or more fails with the same long-line error instead of
// ending the input early.

// referenceParse is the replaced Parse.
func referenceParse(src string) (*Func, error) {
	p := &refParser{sc: bufio.NewScanner(strings.NewReader(src))}
	p.sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	f, err := p.parseFunc()
	if p.sc.Err() != nil {
		err = errLineTooLong
	}
	if err != nil {
		return nil, fmt.Errorf("ir: parse line %d: %w", p.line, err)
	}
	return f, nil
}

// referenceParseModule is the replaced ParseModule.
func referenceParseModule(src string) (*Module, error) {
	lines := strings.Split(src, "\n")
	name := "m"
	var body []string
	for _, l := range lines {
		t := strings.TrimSpace(l)
		if strings.HasPrefix(t, "module ") {
			name = strings.TrimSpace(strings.TrimPrefix(t, "module "))
			continue
		}
		body = append(body, l)
	}
	m := NewModule(name)
	rest := strings.Join(body, "\n")
	for {
		idx := strings.Index(rest, "func @")
		if idx < 0 {
			break
		}
		end := strings.Index(rest[idx:], "\n}")
		if end < 0 {
			return nil, fmt.Errorf("ir: unterminated function in module %s", name)
		}
		chunk := rest[idx : idx+end+2]
		f, err := referenceParse(chunk)
		if err != nil {
			return nil, err
		}
		m.Add(f)
		rest = rest[idx+end+2:]
	}
	return m, nil
}

// refOpByName is the replaced linear-scan OpByName.
func refOpByName(name string) (Op, bool) {
	for op, n := range opNames {
		if n == name {
			return Op(op), true
		}
	}
	return OpNop, false
}

// refRegString is the replaced fmt-based Reg.String.
func refRegString(r Reg) string {
	switch {
	case r == NoReg:
		return "noreg"
	case r.IsVirt():
		return fmt.Sprintf("%%%d", r.VirtIndex())
	case r.IsGPR():
		return fmt.Sprintf("x%d", r.GPRIndex())
	default:
		return fmt.Sprintf("f%d", r.FPRIndex())
	}
}

// referenceFingerprint is the replaced Fingerprint computation, uncached.
func referenceFingerprint(f *Func) Fingerprint {
	h := sha256.New()
	refWriteCanonical(h, f)
	var fp Fingerprint
	h.Sum(fp[:0])
	return fp
}

type refParser struct {
	sc   *bufio.Scanner
	line int
	f    *Func
	// pending successor names per block, resolved after all labels are seen.
	succNames map[*Block][]string
	blocks    map[string]*Block
}

func (p *refParser) next() (string, bool) {
	for p.sc.Scan() {
		p.line++
		l := strings.TrimSpace(p.sc.Text())
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		return l, true
	}
	if p.sc.Err() != nil {
		p.line++ // the line the scanner could not hold
	}
	return "", false
}

func (p *refParser) parseFunc() (*Func, error) {
	head, ok := p.next()
	if !ok {
		return nil, fmt.Errorf("empty input")
	}
	if !strings.HasPrefix(head, "func @") || !strings.HasSuffix(head, "{") {
		return nil, fmt.Errorf("expected 'func @name {', got %q", head)
	}
	name := strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(head, "func @"), "{"))
	p.f = NewFunc(name)
	p.succNames = make(map[*Block][]string)
	p.blocks = make(map[string]*Block)

	var cur *Block
	for {
		l, ok := p.next()
		if !ok {
			return nil, fmt.Errorf("missing closing brace")
		}
		if l == "}" {
			break
		}
		if refIsLabelLine(l) {
			lbl, trip, err := refParseLabel(l)
			if err != nil {
				return nil, err
			}
			cur = p.getBlock(lbl)
			cur.TripCount = trip
			// Move the block into layout order position.
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("instruction before any label: %q", l)
		}
		in, succs, err := p.parseInstr(l)
		if err != nil {
			return nil, err
		}
		cur.Instrs = append(cur.Instrs, in)
		if len(succs) > 0 {
			p.succNames[cur] = succs
		}
	}
	// Resolve successors in layout order. p.succNames is keyed by block;
	// ranging over the map directly would pick which "unknown successor"
	// error wins nondeterministically — the bug class the mapiter lint
	// flags — so walk the block list and look each block up instead.
	for _, b := range p.f.Blocks {
		for _, n := range p.succNames[b] {
			s, ok := p.blocks[n]
			if !ok {
				return nil, fmt.Errorf("unknown successor block %q", n)
			}
			b.Succs = append(b.Succs, s)
		}
	}
	p.f.RecomputePreds()
	if err := p.f.Verify(); err != nil {
		return nil, err
	}
	return p.f, nil
}

func refIsLabelLine(l string) bool {
	// "name:" optionally followed by !trip=N; instruction lines never end
	// with ':' before a possible comment.
	head := l
	if i := strings.Index(l, "!"); i >= 0 {
		head = strings.TrimSpace(l[:i])
	}
	return strings.HasSuffix(head, ":") && !strings.Contains(head, " ")
}

func refParseLabel(l string) (name string, trip int64, err error) {
	rest := l
	if i := strings.Index(l, "!"); i >= 0 {
		tag := strings.TrimSpace(l[i:])
		rest = strings.TrimSpace(l[:i])
		if !strings.HasPrefix(tag, "!trip=") {
			return "", 0, fmt.Errorf("unknown block metadata %q", tag)
		}
		trip, err = strconv.ParseInt(strings.TrimPrefix(tag, "!trip="), 10, 64)
		if err != nil {
			return "", 0, fmt.Errorf("bad trip count in %q: %v", l, err)
		}
	}
	return strings.TrimSuffix(rest, ":"), trip, nil
}

func (p *refParser) getBlock(name string) *Block {
	if b, ok := p.blocks[name]; ok {
		return b
	}
	b := p.f.NewBlock(name)
	p.blocks[name] = b
	return b
}

func (p *refParser) parseInstr(l string) (*Instr, []string, error) {
	var succs []string
	if i := strings.Index(l, "; succs:"); i >= 0 {
		for _, s := range strings.Split(l[i+len("; succs:"):], ",") {
			succs = append(succs, strings.TrimSpace(s))
		}
		l = strings.TrimSpace(l[:i])
	} else if i := strings.Index(l, ";"); i >= 0 {
		l = strings.TrimSpace(l[:i])
	}

	in := &Instr{}
	lhs, rhs := "", l
	if i := strings.Index(l, " = "); i >= 0 {
		lhs, rhs = strings.TrimSpace(l[:i]), strings.TrimSpace(l[i+3:])
	}
	fields := strings.SplitN(rhs, " ", 2)
	op, ok := refOpByName(fields[0])
	if !ok {
		return nil, nil, fmt.Errorf("unknown opcode %q", fields[0])
	}
	in.Op = op

	// Defs.
	if lhs != "" {
		for _, d := range strings.Split(lhs, ",") {
			r, err := p.parseDefReg(strings.TrimSpace(d), op.DefClass())
			if err != nil {
				return nil, nil, err
			}
			in.Defs = append(in.Defs, r)
		}
	}

	// Uses and immediates.
	var args []string
	if len(fields) == 2 {
		for _, a := range strings.Split(fields[1], ",") {
			args = append(args, strings.TrimSpace(a))
		}
	}
	want := op.NumUses()
	if len(args) < want {
		return nil, nil, fmt.Errorf("%s: %d operands, need at least %d register uses", op, len(args), want)
	}
	for i := 0; i < want; i++ {
		r, err := p.parseReg(args[i])
		if err != nil {
			return nil, nil, err
		}
		in.Uses = append(in.Uses, r)
	}
	rest := args[want:]
	if op.HasImm() {
		if len(rest) == 0 {
			return nil, nil, fmt.Errorf("%s: missing immediate", op)
		}
		v, err := strconv.ParseInt(rest[0], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: bad immediate %q: %v", op, rest[0], err)
		}
		in.Imm = v
		rest = rest[1:]
	}
	if op.HasFImm() {
		if len(rest) == 0 {
			return nil, nil, fmt.Errorf("%s: missing float immediate", op)
		}
		v, err := strconv.ParseFloat(rest[0], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: bad float immediate %q: %v", op, rest[0], err)
		}
		in.FImm = v
		rest = rest[1:]
	}
	// Terminators may name their successors inline ("br body") instead of
	// (or in addition to) the "; succs:" annotation.
	if op.IsTerminator() && len(succs) == 0 && len(rest) > 0 {
		succs, rest = rest, nil
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("%s: %d extra operands", op, len(rest))
	}
	return in, succs, nil
}

// parseDefReg parses a definition operand "%N:class" / "fN" / "xN", creating
// vreg table entries as needed.
func (p *refParser) parseDefReg(s string, want Class) (Reg, error) {
	if strings.HasPrefix(s, "%") {
		body := s[1:]
		cls := want
		if i := strings.Index(body, ":"); i >= 0 {
			switch body[i+1:] {
			case "gpr":
				cls = ClassGPR
			case "fp":
				cls = ClassFP
			default:
				return NoReg, fmt.Errorf("unknown class %q", body[i+1:])
			}
			body = body[:i]
		}
		idx, err := strconv.Atoi(body)
		if err != nil {
			return NoReg, fmt.Errorf("bad virtual register %q: %v", s, err)
		}
		if idx < 0 || idx > maxParseVReg {
			return NoReg, fmt.Errorf("virtual register index %d out of range [0, %d]", idx, maxParseVReg)
		}
		for len(p.f.VRegs) <= idx {
			p.f.VRegs = append(p.f.VRegs, VRegInfo{Class: ClassNone})
		}
		if p.f.VRegs[idx].Class == ClassNone {
			p.f.VRegs[idx].Class = cls
		}
		return VReg(idx), nil
	}
	return p.parseReg(s)
}

func (p *refParser) parseReg(s string) (Reg, error) {
	switch {
	case strings.HasPrefix(s, "%"):
		body := s[1:]
		if i := strings.Index(body, ":"); i >= 0 {
			body = body[:i]
		}
		idx, err := strconv.Atoi(body)
		if err != nil {
			return NoReg, fmt.Errorf("bad virtual register %q: %v", s, err)
		}
		if idx < 0 || idx > maxParseVReg {
			return NoReg, fmt.Errorf("virtual register index %d out of range [0, %d]", idx, maxParseVReg)
		}
		for len(p.f.VRegs) <= idx {
			p.f.VRegs = append(p.f.VRegs, VRegInfo{Class: ClassNone})
		}
		return VReg(idx), nil
	case strings.HasPrefix(s, "x"):
		idx, err := strconv.Atoi(s[1:])
		if err != nil || idx < 0 || idx >= NumGPR {
			return NoReg, fmt.Errorf("bad GPR %q", s)
		}
		return XReg(idx), nil
	case strings.HasPrefix(s, "f"):
		idx, err := strconv.Atoi(s[1:])
		if err != nil || idx < 0 || idx > maxParseFPR {
			return NoReg, fmt.Errorf("bad FP register %q", s)
		}
		return FReg(idx), nil
	default:
		return NoReg, fmt.Errorf("bad register operand %q", s)
	}
}

// referencePrint is the replaced Print.
func referencePrint(f *Func) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func @%s {\n", f.Name)
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "  %s:", b.Name)
		if b.TripCount != 0 {
			fmt.Fprintf(&sb, " !trip=%d", b.TripCount)
		}
		sb.WriteByte('\n')
		for _, in := range b.Instrs {
			sb.WriteString("    ")
			sb.WriteString(refFormatInstr(f, b, in))
			sb.WriteByte('\n')
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

func refFormatInstr(f *Func, b *Block, in *Instr) string {
	var sb strings.Builder
	if len(in.Defs) > 0 {
		for i, d := range in.Defs {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(refRegWithClass(f, d))
		}
		sb.WriteString(" = ")
	}
	sb.WriteString(in.Op.String())
	first := true
	arg := func(s string) {
		if first {
			sb.WriteByte(' ')
			first = false
		} else {
			sb.WriteString(", ")
		}
		sb.WriteString(s)
	}
	for _, u := range in.Uses {
		arg(refRegString(u))
	}
	if in.Op.HasImm() {
		arg(fmt.Sprintf("%d", in.Imm))
	}
	if in.Op.HasFImm() {
		arg(fmt.Sprintf("%g", in.FImm))
	}
	if in.Op.IsTerminator() && len(b.Succs) > 0 {
		names := make([]string, len(b.Succs))
		for i, s := range b.Succs {
			names[i] = s.Name
		}
		sb.WriteString(" ; succs: ")
		sb.WriteString(strings.Join(names, ", "))
	}
	return sb.String()
}

func refRegWithClass(f *Func, r Reg) string {
	if r.IsVirt() {
		return fmt.Sprintf("%s:%s", refRegString(r), f.VRegs[r.VirtIndex()].Class)
	}
	return refRegString(r)
}

// referencePrintModule renders every function of the module in name order.
func referencePrintModule(m *Module) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s\n\n", m.Name)
	for _, f := range m.SortedFuncs() {
		sb.WriteString(referencePrint(f))
		sb.WriteByte('\n')
	}
	return sb.String()
}

func refWriteCanonical(h io.Writer, f *Func) {
	var sb strings.Builder
	sb.WriteString("func {\n")
	for _, b := range f.Blocks {
		sb.WriteString("  ")
		sb.WriteString(b.Name)
		sb.WriteByte(':')
		if b.TripCount != 0 {
			fmt.Fprintf(&sb, " !trip=%d", b.TripCount)
		}
		sb.WriteByte('\n')
		for _, in := range b.Instrs {
			sb.WriteString("    ")
			sb.WriteString(refFormatInstr(f, b, in))
			sb.WriteByte('\n')
		}
		// Flush per block to keep the builder small on large functions.
		io.WriteString(h, sb.String())
		sb.Reset()
	}
	sb.WriteString("}\nvregs:")
	for _, v := range f.VRegs {
		sb.WriteByte(' ')
		sb.WriteString(v.Class.String())
	}
	fmt.Fprintf(&sb, "\nfpregs=%d spillslots=%d\n", f.NumFPRegs, f.SpillSlots)
	io.WriteString(h, sb.String())
}
