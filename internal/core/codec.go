package core

// The Result codec serializes a compiled *Result into a self-contained,
// deterministic byte string — the unit the persistent disk cache
// (internal/diskcache) stores and the distributed tier ships between
// nodes. Two properties matter more than compactness:
//
//   - Determinism: encoding the same Result twice yields identical bytes,
//     and encoding a decoded Result yields the input bytes. Byte-identity
//     of served results across nodes and restarts reduces to byte equality
//     of encodings, which is what the fleet tests pin.
//   - Robustness: DecodeResult never panics on truncated or corrupted
//     input — it validates opcode, class, block and operand ranges before
//     constructing the function, so a bad disk entry degrades to a cache
//     miss, never a crash (fuzzed by FuzzDecodeResult).
//
// The format is a version-tagged concatenation of sections (function,
// conflict report, allocator stats, pre-pass stats, method) using
// unsigned/signed varints for integers, length-prefixed bytes for strings
// and fixed 64-bit words for float bit patterns. Maps are emitted in sorted
// key order.
//
// Results produced under regalloc.Options.Record (the verifier's
// Assignments / SpillSlotOf / EntryLiveIn captures) are not encodable:
// verified compiles bypass every cache, so the codec never needs the
// recording fields and rejects them rather than silently dropping data.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"prescount/internal/conflict"
	"prescount/internal/ir"
	"prescount/internal/regalloc"
)

// codecMagic tags an encoded Result; the last byte is the format version.
// Any mismatch decodes as an error (the disk cache treats it as a miss and
// drops the entry), so the version byte is the only migration story the
// format needs. Version 3 added Result.Method.
var codecMagic = [4]byte{'P', 'C', 'R', 3}

// EncodeResult serializes res. The encoding is deterministic: identical
// results produce identical bytes. Results carrying the allocator's
// recording fields (filled only under verification, which bypasses caches)
// are rejected.
func EncodeResult(res *Result) ([]byte, error) {
	if res == nil || res.Func == nil || res.Report == nil || res.Alloc == nil {
		return nil, errors.New("core: EncodeResult: incomplete result")
	}
	a := res.Alloc
	if len(a.Assignments) > 0 || len(a.SpillSlotOf) > 0 || len(a.EntryLiveIn) > 0 {
		return nil, errors.New("core: EncodeResult: recorded (verify-mode) results are not encodable")
	}
	buf := append([]byte(nil), codecMagic[:]...)
	buf = appendFunc(buf, res.Func)
	buf = appendReport(buf, res.Report)
	buf = appendAlloc(buf, a)
	buf = appendInts(buf,
		res.Coalesce.Candidates, res.Coalesce.Coalesced,
		res.SDG.CopiesInserted, res.SDG.GroupsBefore, res.SDG.GroupsAfter,
		res.SDG.LargestBefore, res.SDG.LargestAfter,
		res.Sched.Reordered,
		res.BankAssignForced,
		res.Renumber.Renamed, res.Renumber.Nodes, res.Renumber.OverflowNodes,
		int(res.Method))
	return buf, nil
}

func appendFunc(buf []byte, f *ir.Func) []byte {
	buf = appendString(buf, f.Name)
	buf = appendInts(buf, f.NumFPRegs, f.SpillSlots)
	buf = binary.AppendUvarint(buf, uint64(len(f.VRegs)))
	for _, v := range f.VRegs {
		buf = append(buf, byte(v.Class))
	}
	buf = binary.AppendUvarint(buf, uint64(len(f.Blocks)))
	for _, b := range f.Blocks {
		buf = appendString(buf, b.Name)
		buf = binary.AppendVarint(buf, b.TripCount)
		buf = binary.AppendUvarint(buf, uint64(len(b.Succs)))
		for _, s := range b.Succs {
			buf = binary.AppendUvarint(buf, uint64(s.ID))
		}
		buf = binary.AppendUvarint(buf, uint64(len(b.Instrs)))
		for _, in := range b.Instrs {
			buf = append(buf, byte(in.Op))
			buf = binary.AppendUvarint(buf, uint64(len(in.Defs)))
			for _, d := range in.Defs {
				buf = binary.AppendUvarint(buf, uint64(d))
			}
			buf = binary.AppendUvarint(buf, uint64(len(in.Uses)))
			for _, u := range in.Uses {
				buf = binary.AppendUvarint(buf, uint64(u))
			}
			buf = binary.AppendVarint(buf, in.Imm)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(in.FImm))
		}
	}
	return buf
}

func appendReport(buf []byte, r *conflict.Report) []byte {
	buf = appendInts(buf,
		r.ConflictRelevant, r.StaticConflicts, r.ConflictInstrs,
		r.SubgroupViolations, r.Copies, r.SpillStores, r.SpillReloads, r.Instrs)
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.WeightedConflicts))
}

func appendAlloc(buf []byte, a *regalloc.Result) []byte {
	buf = appendInts(buf,
		a.LoopSplits, a.SpilledVRegs, a.SpillStores, a.SpillReloads,
		a.Evictions, a.Remats, a.BankBreaks, a.Rescues)
	bailed := 0
	if a.ColoringBailed {
		bailed = 1
	}
	buf = appendInts(buf, bailed)
	buf = appendRegIntMap(buf, a.AssignedPhys)
	buf = appendIntIntMap(buf, a.GroupDispl)
	return buf
}

// appendRegIntMap emits a map[ir.Reg]int in ascending key order.
func appendRegIntMap(buf []byte, m map[ir.Reg]int) []byte {
	keys := make([]ir.Reg, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = binary.AppendUvarint(buf, uint64(k))
		buf = binary.AppendVarint(buf, int64(m[k]))
	}
	return buf
}

// appendIntIntMap emits a map[int]int in ascending key order.
func appendIntIntMap(buf []byte, m map[int]int) []byte {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = binary.AppendVarint(buf, int64(k))
		buf = binary.AppendVarint(buf, int64(m[k]))
	}
	return buf
}

func appendInts(buf []byte, vs ...int) []byte {
	for _, v := range vs {
		buf = binary.AppendVarint(buf, int64(v))
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// decoder walks an encoded Result with sticky-error semantics: the first
// malformed read poisons every later one, so DecodeResult checks d.err once
// per section instead of after every field.
type decoder struct {
	data []byte
	pos  int
	err  error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("core: decode: "+format, args...)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.fail("truncated uvarint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		d.fail("truncated varint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) int() int { return int(d.varint()) }

// count reads a length prefix and bounds it by the bytes remaining: every
// encoded element occupies at least one byte, so a larger count is
// corruption and must not drive an allocation.
func (d *decoder) count(what string) int {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.data)-d.pos) {
		d.fail("%s count %d exceeds remaining input", what, n)
	}
	return int(n)
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.data) {
		d.fail("truncated byte at offset %d", d.pos)
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

func (d *decoder) string() string {
	n := d.count("string")
	if d.err != nil {
		return ""
	}
	s := string(d.data[d.pos : d.pos+n])
	d.pos += n
	return s
}

func (d *decoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.data)-d.pos < 8 {
		d.fail("truncated float at offset %d", d.pos)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.pos:]))
	d.pos += 8
	return v
}

// DecodeResult deserializes an EncodeResult payload. Corrupted or truncated
// input returns an error, never panics — callers (the disk cache) treat any
// error as a cache miss.
func DecodeResult(data []byte) (*Result, error) {
	if len(data) < len(codecMagic) || string(data[:len(codecMagic)]) != string(codecMagic[:]) {
		return nil, errors.New("core: decode: bad magic or unsupported version")
	}
	d := &decoder{data: data, pos: len(codecMagic)}
	fn := d.decodeFunc()
	rep := d.decodeReport()
	alloc := d.decodeAlloc()
	res := &Result{Func: fn, Report: rep, Alloc: alloc}
	res.Coalesce.Candidates = d.int()
	res.Coalesce.Coalesced = d.int()
	res.SDG.CopiesInserted = d.int()
	res.SDG.GroupsBefore = d.int()
	res.SDG.GroupsAfter = d.int()
	res.SDG.LargestBefore = d.int()
	res.SDG.LargestAfter = d.int()
	res.Sched.Reordered = d.int()
	res.BankAssignForced = d.int()
	res.Renumber.Renamed = d.int()
	res.Renumber.Nodes = d.int()
	res.Renumber.OverflowNodes = d.int()
	// A result is produced by one allocator method, never by the portfolio
	// itself: the race returns its winner's result.
	res.Method = Method(d.int())
	if d.err == nil && (res.Method < MethodNon || res.Method >= MethodPortfolio) {
		d.fail("method %d outside non..coloring", res.Method)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.pos != len(d.data) {
		return nil, fmt.Errorf("core: decode: %d trailing bytes", len(d.data)-d.pos)
	}
	return res, nil
}

func (d *decoder) decodeFunc() *ir.Func {
	f := ir.NewFunc(d.string())
	f.NumFPRegs = d.int()
	f.SpillSlots = d.int()
	nvregs := d.count("vreg")
	if d.err != nil {
		return f
	}
	f.VRegs = make([]ir.VRegInfo, nvregs)
	for i := range f.VRegs {
		c := ir.Class(d.byte())
		if d.err == nil && c != ir.ClassGPR && c != ir.ClassFP {
			d.fail("vreg %d has invalid class %d", i, c)
			return f
		}
		f.VRegs[i].Class = c
	}
	nblocks := d.count("block")
	if d.err != nil {
		return f
	}
	if nblocks == 0 {
		d.fail("function has no blocks")
		return f
	}
	blocks := make([]*ir.Block, nblocks)
	type succRef struct{ block, succ, id int }
	var succs []succRef
	for i := range blocks {
		b := &ir.Block{ID: i, Name: d.string(), TripCount: d.varint()}
		nsuccs := d.count("succ")
		if d.err != nil {
			return f
		}
		b.Succs = make([]*ir.Block, nsuccs)
		for s := 0; s < nsuccs; s++ {
			id := int(d.uvarint())
			if d.err == nil && (id < 0 || id >= nblocks) {
				d.fail("block %d successor %d out of range (have %d blocks)", i, id, nblocks)
				return f
			}
			succs = append(succs, succRef{block: i, succ: s, id: id})
		}
		ninstrs := d.count("instr")
		if d.err != nil {
			return f
		}
		b.Instrs = make([]*ir.Instr, 0, ninstrs)
		for j := 0; j < ninstrs; j++ {
			in := d.decodeInstr(f, i, j)
			if d.err != nil {
				return f
			}
			b.Instrs = append(b.Instrs, in)
		}
		blocks[i] = b
	}
	if d.err != nil {
		return f
	}
	for _, r := range succs {
		blocks[r.block].Succs[r.succ] = blocks[r.id]
	}
	f.Blocks = blocks
	f.RecomputePreds()
	return f
}

func (d *decoder) decodeInstr(f *ir.Func, block, idx int) *ir.Instr {
	in := &ir.Instr{Op: ir.Op(d.byte())}
	if d.err == nil && !in.Op.Valid() {
		d.fail("block %d instr %d has invalid opcode %d", block, idx, in.Op)
		return in
	}
	in.Defs = d.decodeRegs(f, "def")
	in.Uses = d.decodeRegs(f, "use")
	in.Imm = d.varint()
	in.FImm = d.float()
	return in
}

// decodeRegs reads an operand list, rejecting virtual registers whose dense
// index falls outside the function's vreg table (RegClass would panic on
// them downstream).
func (d *decoder) decodeRegs(f *ir.Func, what string) []ir.Reg {
	n := d.count(what)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]ir.Reg, n)
	for i := range out {
		r := ir.Reg(d.uvarint())
		if d.err != nil {
			return nil
		}
		if r.IsVirt() && r.VirtIndex() >= len(f.VRegs) {
			d.fail("%s operand %v outside vreg table (%d entries)", what, r, len(f.VRegs))
			return nil
		}
		out[i] = r
	}
	return out
}

func (d *decoder) decodeReport() *conflict.Report {
	r := &conflict.Report{
		ConflictRelevant:   d.int(),
		StaticConflicts:    d.int(),
		ConflictInstrs:     d.int(),
		SubgroupViolations: d.int(),
		Copies:             d.int(),
		SpillStores:        d.int(),
		SpillReloads:       d.int(),
		Instrs:             d.int(),
	}
	r.WeightedConflicts = d.float()
	return r
}

func (d *decoder) decodeAlloc() *regalloc.Result {
	a := &regalloc.Result{
		LoopSplits:   d.int(),
		SpilledVRegs: d.int(),
		SpillStores:  d.int(),
		SpillReloads: d.int(),
		Evictions:    d.int(),
		Remats:       d.int(),
		BankBreaks:   d.int(),
		Rescues:      d.int(),
	}
	a.ColoringBailed = d.int() != 0
	if n := d.count("assigned-phys"); d.err == nil && n > 0 {
		a.AssignedPhys = make(map[ir.Reg]int, n)
		for i := 0; i < n; i++ {
			k := ir.Reg(d.uvarint())
			a.AssignedPhys[k] = d.int()
		}
	}
	if n := d.count("group-displ"); d.err == nil && n > 0 {
		a.GroupDispl = make(map[int]int, n)
		for i := 0; i < n; i++ {
			k := d.int()
			a.GroupDispl[k] = d.int()
		}
	}
	return a
}
