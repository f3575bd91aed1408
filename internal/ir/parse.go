package ir

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Parse reads the textual MIR format produced by Print and returns the
// function. The grammar is line-oriented:
//
//	func @name {
//	  label: [!trip=N]
//	    [%d:class[, ...] =] op [operand[, operand...]] [; succs: a, b]
//	  }
//
// Operands are virtual registers (%N), physical registers (xN, fN), integer
// immediates, or float immediates, validated against the opcode signature.
// A line of maxLineBytes or more is an error.
//
// Parsing is one forward pass over the source: lines and operands are
// substrings of src, opcodes resolve through a table, and the function's
// instructions and operand lists are cut from a few slabs sized from the
// line count instead of allocated one by one. The function name and block
// labels are copied out of src, so the function does not keep the source
// alive.
func Parse(src string) (*Func, error) {
	p := parser{rest: src}
	f, err := p.parseFunc()
	if err != nil {
		return nil, fmt.Errorf("ir: parse line %d: %w", p.line, err)
	}
	return f, nil
}

// ParseModule reads a module: a "module NAME" header followed by functions.
func ParseModule(src string) (*Module, error) {
	name, rest := "m", src
	// A header line is dropped from the text before functions are cut out
	// of it. Without one (the common case: the daemon's bodies are bare
	// functions) dropping nothing leaves the source as it is, so the
	// split and re-join run only when "module " occurs at all.
	if strings.Contains(src, "module ") {
		lines := strings.Split(src, "\n")
		body := lines[:0]
		for _, l := range lines {
			t := strings.TrimSpace(l)
			if strings.HasPrefix(t, "module ") {
				name = strings.Clone(strings.TrimSpace(strings.TrimPrefix(t, "module ")))
				continue
			}
			body = append(body, l)
		}
		rest = strings.Join(body, "\n")
	}
	m := NewModule(name)
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
		f, err := Parse(chunk)
		if err != nil {
			return nil, err
		}
		m.Add(f)
		rest = rest[idx+end+2:]
	}
	return m, nil
}

// Parser-side operand bounds. The Reg encoding itself admits indices up to
// 2^30, but untrusted textual input (the daemon's request path) must not be
// able to grow the vreg table without limit or reach the encoding helpers'
// panics — a bad request returns an error, never kills the process.
const (
	// maxParseVReg bounds virtual register indices in parsed source.
	maxParseVReg = 1 << 20
	// maxParseFPR bounds physical FP register indices in parsed source
	// (the largest paper configuration is 1024 registers).
	maxParseFPR = 1 << 20
	// maxLineBytes bounds one source line, newline excluded: the limit of
	// the line scanner this parser replaced, so no source that parsed
	// before is rejected now.
	maxLineBytes = 1 << 20
)

// errLineTooLong rejects a line of maxLineBytes or more.
var errLineTooLong = errors.New("line too long (limit 1 MiB)")

type parser struct {
	rest string // source not yet read
	line int    // 1-based number of the last line read
	f    *Func
	// blocks maps labels to blocks; succs holds each block's pending
	// successor list (by block ID), resolved after all labels are seen.
	blocks map[string]*Block
	succs  []pendingSuccs
	// Slabs the function's instructions, per-block instruction lists and
	// operand lists are cut from, and the size of a fresh slab. fresh
	// reports that the current block's list grows in place at the head
	// of ptrs.
	instrs []Instr
	ptrs   []*Instr
	regs   []Reg
	chunk  int
	fresh  bool
}

// pendingSuccs is the comma-separated successor list of a block's
// terminator, either the "; succs:" annotation or the inline operands.
type pendingSuccs struct {
	names string
	ok    bool
}

// next returns the next non-blank, non-comment line, trimmed; ok is false
// at the end of the input.
func (p *parser) next() (l string, ok bool, err error) {
	for p.rest != "" {
		if i := strings.IndexByte(p.rest, '\n'); i >= 0 {
			l, p.rest = p.rest[:i], p.rest[i+1:]
		} else {
			l, p.rest = p.rest, ""
		}
		p.line++
		if len(l) >= maxLineBytes {
			return "", false, errLineTooLong
		}
		l = strings.TrimSpace(l)
		if l == "" || l[0] == '#' {
			continue
		}
		return l, true, nil
	}
	return "", false, nil
}

func (p *parser) parseFunc() (*Func, error) {
	head, ok, err := p.next()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("empty input")
	}
	if !strings.HasPrefix(head, "func @") || !strings.HasSuffix(head, "{") {
		return nil, fmt.Errorf("expected 'func @name {', got %q", head)
	}
	name := strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(head, "func @"), "{"))
	p.f = NewFunc(strings.Clone(name))
	p.blocks = make(map[string]*Block)
	p.allocSlabs()

	var cur *Block
	for {
		l, ok, err := p.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("missing closing brace")
		}
		if l == "}" {
			break
		}
		if isLabelLine(l) {
			lbl, trip, err := parseLabel(l)
			if err != nil {
				return nil, err
			}
			p.closeBlock(cur)
			cur = p.openBlock(lbl)
			cur.TripCount = trip
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
		if succs.ok {
			p.succs[cur.ID] = succs
		}
	}
	p.closeBlock(cur)
	// Resolve successors in layout order, so the first unknown name in
	// layout order is the one reported.
	for _, b := range p.f.Blocks {
		s := p.succs[b.ID]
		for rest, more := s.names, s.ok; more; {
			var n string
			n, rest, more = strings.Cut(rest, ",")
			n = strings.TrimSpace(n)
			t, ok := p.blocks[n]
			if !ok {
				return nil, fmt.Errorf("unknown successor block %q", n)
			}
			b.Succs = append(b.Succs, t)
		}
	}
	p.f.RecomputePreds()
	if err := p.f.Verify(); err != nil {
		return nil, err
	}
	return p.f, nil
}

// slabChunk caps the entries of one slab. A function of fewer lines fits
// in one slab of each kind; a longer one draws further slabs as it goes,
// so a source of blank or comment lines costs at most one slab.
const slabChunk = 4096

// allocSlabs sizes the first slabs from the line count of the rest of the
// source, which bounds its instructions. Operand lists average under three
// registers per instruction; a longer run draws a further slab.
func (p *parser) allocSlabs() {
	p.chunk = min(strings.Count(p.rest, "\n")+1, slabChunk)
	p.instrs = make([]Instr, p.chunk)
	p.ptrs = make([]*Instr, p.chunk)
	p.regs = make([]Reg, 3*p.chunk)
	p.f.VRegs = make([]VRegInfo, 0, p.chunk)
}

// openBlock makes the labelled block current. A block seen for the first
// time (or still empty) grows its instruction list in place at the head of
// the pointer slab; a label that reopens a block with instructions appends
// to that block's own list, which closeBlock capped, so it reallocates.
func (p *parser) openBlock(name string) *Block {
	b, ok := p.blocks[name]
	if !ok {
		b = p.f.NewBlock(strings.Clone(name))
		p.blocks[name] = b
		p.succs = append(p.succs, pendingSuccs{})
	}
	p.fresh = len(b.Instrs) == 0
	if p.fresh {
		if len(p.ptrs) == 0 {
			p.ptrs = make([]*Instr, p.chunk)
		}
		b.Instrs = p.ptrs[:0]
	}
	return b
}

// closeBlock caps the current block's instruction list at its length, so a
// later append (InsertBefore, spill code) reallocates instead of
// overwriting the next block's region, and moves the pointer slab past it.
// A list that outgrew the slab has moved to its own array; the slab is
// then used up.
func (p *parser) closeBlock(b *Block) {
	if b == nil {
		return
	}
	n := len(b.Instrs)
	b.Instrs = b.Instrs[:n:n]
	if p.fresh {
		p.ptrs = p.ptrs[min(n, len(p.ptrs)):]
	}
}

// newInstr returns the next instruction of the slab.
func (p *parser) newInstr() *Instr {
	if len(p.instrs) == 0 {
		p.instrs = make([]Instr, p.chunk)
	}
	in := &p.instrs[0]
	p.instrs = p.instrs[1:]
	return in
}

// takeRegs returns an empty operand list with room for n registers, cut
// from the register slab with its capacity capped at n.
func (p *parser) takeRegs(n int) []Reg {
	if n == 0 {
		return nil
	}
	if len(p.regs) < n {
		p.regs = make([]Reg, max(n, 3*p.chunk))
	}
	s := p.regs[:0:n]
	p.regs = p.regs[n:]
	return s
}

func isLabelLine(l string) bool {
	// "name:" optionally followed by !trip=N; instruction lines never end
	// with ':' before a possible comment.
	head := l
	if i := strings.IndexByte(l, '!'); i >= 0 {
		head = strings.TrimSpace(l[:i])
	}
	return strings.HasSuffix(head, ":") && strings.IndexByte(head, ' ') < 0
}

func parseLabel(l string) (name string, trip int64, err error) {
	rest := l
	if i := strings.IndexByte(l, '!'); i >= 0 {
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

// parseInstr parses one instruction line. Operands are cut from the line
// one at a time; the checks and their order (opcode, defs, use count, uses,
// immediates, successors, extra operands) decide which error a malformed
// line reports.
func (p *parser) parseInstr(l string) (*Instr, pendingSuccs, error) {
	var succs pendingSuccs
	if i := strings.IndexByte(l, ';'); i >= 0 {
		if j := strings.Index(l[i:], "; succs:"); j >= 0 {
			succs = pendingSuccs{names: l[i+j+len("; succs:"):], ok: true}
			i += j
		}
		l = strings.TrimSpace(l[:i])
	}

	lhs, rhs := "", l
	if i := strings.Index(l, " = "); i >= 0 {
		lhs, rhs = strings.TrimSpace(l[:i]), strings.TrimSpace(l[i+3:])
	}
	mnemonic, args, hasArgs := strings.Cut(rhs, " ")
	op, ok := OpByName(mnemonic)
	if !ok {
		return nil, succs, fmt.Errorf("unknown opcode %q", mnemonic)
	}
	in := p.newInstr()
	in.Op = op

	// Defs.
	if lhs != "" {
		in.Defs = p.takeRegs(strings.Count(lhs, ",") + 1)
		for more := true; more; {
			var d string
			d, lhs, more = strings.Cut(lhs, ",")
			r, err := p.parseDefReg(strings.TrimSpace(d), op.DefClass())
			if err != nil {
				return nil, succs, err
			}
			in.Defs = append(in.Defs, r)
		}
	}

	// Uses and immediates: nargs comma-separated operands, taken in order.
	nargs := 0
	if hasArgs {
		nargs = strings.Count(args, ",") + 1
	}
	arg := func() string {
		a, tail, _ := strings.Cut(args, ",")
		args = tail
		nargs--
		return strings.TrimSpace(a)
	}
	want := op.NumUses()
	if nargs < want {
		return nil, succs, fmt.Errorf("%s: %d operands, need at least %d register uses", op, nargs, want)
	}
	in.Uses = p.takeRegs(want)
	for i := 0; i < want; i++ {
		r, err := p.parseReg(arg())
		if err != nil {
			return nil, succs, err
		}
		in.Uses = append(in.Uses, r)
	}
	if op.HasImm() {
		if nargs == 0 {
			return nil, succs, fmt.Errorf("%s: missing immediate", op)
		}
		a := arg()
		v, err := strconv.ParseInt(a, 10, 64)
		if err != nil {
			return nil, succs, fmt.Errorf("%s: bad immediate %q: %v", op, a, err)
		}
		in.Imm = v
	}
	if op.HasFImm() {
		if nargs == 0 {
			return nil, succs, fmt.Errorf("%s: missing float immediate", op)
		}
		a := arg()
		v, err := strconv.ParseFloat(a, 64)
		if err != nil {
			return nil, succs, fmt.Errorf("%s: bad float immediate %q: %v", op, a, err)
		}
		in.FImm = v
	}
	// Terminators may name their successors inline ("br body") instead of
	// (or in addition to) the "; succs:" annotation.
	if op.IsTerminator() && !succs.ok && nargs > 0 {
		succs, nargs = pendingSuccs{names: args, ok: true}, 0
	}
	if nargs != 0 {
		return nil, succs, fmt.Errorf("%s: %d extra operands", op, nargs)
	}
	return in, succs, nil
}

// parseDefReg parses a definition operand "%N:class" / "fN" / "xN", creating
// vreg table entries as needed.
func (p *parser) parseDefReg(s string, want Class) (Reg, error) {
	if !strings.HasPrefix(s, "%") {
		return p.parseReg(s)
	}
	body, class, hasClass := strings.Cut(s[1:], ":")
	cls := want
	if hasClass {
		switch class {
		case "gpr":
			cls = ClassGPR
		case "fp":
			cls = ClassFP
		default:
			return NoReg, fmt.Errorf("unknown class %q", class)
		}
	}
	idx, err := p.vregIndex(s, body)
	if err != nil {
		return NoReg, err
	}
	if p.f.VRegs[idx].Class == ClassNone {
		p.f.VRegs[idx].Class = cls
	}
	return VReg(idx), nil
}

func (p *parser) parseReg(s string) (Reg, error) {
	switch {
	case strings.HasPrefix(s, "%"):
		body, _, _ := strings.Cut(s[1:], ":")
		idx, err := p.vregIndex(s, body)
		if err != nil {
			return NoReg, err
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

// vregIndex parses the index body of virtual register operand s, checks
// it against maxParseVReg and grows the vreg table to cover it.
func (p *parser) vregIndex(s, body string) (int, error) {
	idx, err := strconv.Atoi(body)
	if err != nil {
		return 0, fmt.Errorf("bad virtual register %q: %v", s, err)
	}
	if idx < 0 || idx > maxParseVReg {
		return 0, fmt.Errorf("virtual register index %d out of range [0, %d]", idx, maxParseVReg)
	}
	if n := len(p.f.VRegs); idx >= n {
		p.f.VRegs = append(p.f.VRegs, make([]VRegInfo, idx+1-n)...)
	}
	return idx, nil
}
