package ir

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"strconv"
)

// Fingerprint is a content address for a function: the SHA-256 of its
// canonical printed form with the function name elided. Two functions with
// equal fingerprints are structurally identical — same blocks, labels, trip
// counts, instructions, operands, virtual-register classes and allocator
// state — and therefore compile to identical results under identical
// options, which is what lets the compile cache (internal/compilecache)
// dedup the repeated kernels of the workload suites even when they appear
// under different symbol names.
type Fingerprint [sha256.Size]byte

// String renders the fingerprint as hex (shortened for diagnostics).
func (fp Fingerprint) String() string { return hex.EncodeToString(fp[:8]) }

// fpState is one immutable (generation, fingerprint) pair. Func caches the
// pair behind an atomic pointer so concurrent Fingerprint calls on a shared
// function — the sweep drivers compile the same input function under many
// (bank, method) settings in parallel — stay race-free: both goroutines
// compute the same value and the losing Store is harmless.
type fpState struct {
	gen uint64
	fp  Fingerprint
}

// Fingerprint returns the function's content fingerprint, computing and
// caching it on first use. The cache is keyed by the IR mutation generation
// (Generation): any mutating builder or transform entry point invalidates it
// the same way it invalidates the analysis cache, so a stale value can never
// be returned. Safe for concurrent use as long as the function itself is not
// being mutated concurrently (the same contract every analysis has).
func (f *Func) Fingerprint() Fingerprint {
	if s := f.fpCache.Load(); s != nil && s.gen == f.gen {
		return s.fp
	}
	h := sha256.New()
	writeCanonical(h, f)
	s := &fpState{gen: f.gen}
	h.Sum(s.fp[:0])
	f.fpCache.Store(s)
	return s.fp
}

// writeCanonical streams the canonical form into h: the textual MIR format
// of Print with "func {" in place of "func @name {", followed by the
// virtual-register class table (use operands print without classes, so the
// table is not fully determined by the body) and the allocator-state fields
// that seed compilation (SpillSlots numbers new spill slots, NumFPRegs is
// carried by Clone). The block text comes from Print's own formatter, so
// these bytes, and with them every fingerprint ever stored (disk-cache
// record names, ring placement), stay what Print makes them.
func writeCanonical(h io.Writer, f *Func) {
	const flushAt = 4 << 10
	buf := make([]byte, 0, 2*flushAt)
	buf = append(buf, "func {\n"...)
	for _, b := range f.Blocks {
		buf = appendBlock(buf, f, b)
		// Flush between blocks to keep the buffer small on large functions.
		if len(buf) >= flushAt {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	buf = append(buf, "}\nvregs:"...)
	for _, v := range f.VRegs {
		buf = append(append(buf, ' '), v.Class.String()...)
	}
	buf = strconv.AppendInt(append(buf, "\nfpregs="...), int64(f.NumFPRegs), 10)
	buf = strconv.AppendInt(append(buf, " spillslots="...), int64(f.SpillSlots), 10)
	h.Write(append(buf, '\n'))
}
