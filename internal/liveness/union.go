package liveness

import (
	"cmp"
	"slices"

	"prescount/internal/ir"
)

// Union is a set of disjoint intervals occupying one physical register,
// supporting overlap queries against candidate intervals. It stores member
// segments tagged with their owner so evictions can be computed. Owners
// additionally carry an insertion sequence number so ConflictsWith can
// return them in a deterministic order: callers sum float eviction costs
// over the result, so the order must be a pure function of the operation
// sequence, or those sums — and hence whole allocations — would vary
// between runs of the same process.
//
// The segment store is an interval tree in the sense of LLVM's
// LiveIntervalUnion: a treap keyed by (segment start, insertion id), each
// node augmented with the maximum segment end in its subtree. HasConflict
// is the classic single-path interval-tree search, O(log n) per probe
// segment; ConflictsWith descends only into subtrees whose max end clears
// the probe, O(log n + k). Treap priorities are a hash of the insertion id,
// so the tree shape — and with it every traversal — is a pure function of
// the operation sequence: identical runs produce identical results.
// NaiveUnion (union_naive_test.go) keeps the original scan-all-members
// implementation as the differential-testing reference; it is compiled
// into tests only.
//
// Owner records (interval, sequence, first segment node) sit in a member
// list proportional to the union's size; an OwnerIndex finds them by
// VirtIndex. Every node also carries its owner's sequence, so sorting query
// hits never looks an owner up. Remove and Reset cost the members they
// touch, never the size of a function an earlier use of the union held.
//
// A member interval must not be mutated while it is in the union (the tree
// indexes its segments); the allocator only inserts settled intervals.
// Owners must be virtual registers.
type Union struct {
	root *unionNode
	// members holds one record per owner, in no particular order (Remove
	// moves the last record into the hole); idx finds an owner's record.
	members []unionMember
	idx     *OwnerIndex
	next    uint32 // insertion sequence counter
	nextID  uint64 // tree node id counter
	// hits is the query scratch buffer.
	hits []*unionNode

	// node storage: a chunked arena reused across Reset cycles. Nodes
	// deleted mid-lifetime are simply abandoned until the next Reset (the
	// arena grows to the peak live-node count and stays there). Chunks are
	// append-only, so outstanding node pointers never move.
	chunks [][]unionNode
	ci, ni int // current chunk index / next free slot in it
}

// unionMember is one owner's record: its interval, insertion sequence and
// the first of its segment nodes (chained through unionNode.nextSeg in
// segment order).
type unionMember struct {
	owner ir.Reg
	seq   uint32
	iv    *Interval
	segs  *unionNode
}

// OwnerIndex finds owner records by VirtIndex for every Union that uses it.
// A table of one int32 per virtual register, it lets a whole register file
// of unions share one index instead of each keeping a table sized by the
// function: a register file of 1024 unions over 10k registers would
// otherwise hold ten million entries. The rule that makes sharing sound: a
// register is a member of at most one union sharing the index at a time
// (an allocator places each register in one physical register).
type OwnerIndex struct {
	// pos holds 1 + the position of the owner's record in the member list
	// of the union that last inserted it, or 0. A lookup trusts an entry
	// only if the record there names the owner, so entries left behind by
	// Remove and Reset never need clearing.
	pos []int32
}

func (x *OwnerIndex) lookup(r ir.Reg) int {
	if i := r.VirtIndex(); i < len(x.pos) {
		return int(x.pos[i]) - 1
	}
	return -1
}

func (x *OwnerIndex) set(r ir.Reg, pos int) {
	i := r.VirtIndex()
	if i >= len(x.pos) {
		x.pos = append(x.pos, make([]int32, i+1-len(x.pos))...)
	}
	x.pos[i] = int32(pos + 1)
}

// newNode returns a zeroed node from the arena, growing it on demand.
func (u *Union) newNode() *unionNode {
	for u.ci < len(u.chunks) && u.ni == len(u.chunks[u.ci]) {
		u.ci++
		u.ni = 0
	}
	if u.ci == len(u.chunks) {
		size := 16 << len(u.chunks) // 16, 32, 64, ...
		if size > 4096 {
			size = 4096
		}
		u.chunks = append(u.chunks, make([]unionNode, size))
		u.ni = 0
	}
	n := &u.chunks[u.ci][u.ni]
	u.ni++
	return n
}

type unionNode struct {
	left, right *unionNode
	// nextSeg is the owner's next segment node, in segment order.
	nextSeg    *unionNode
	start, end int
	maxEnd     int
	owner      ir.Reg
	seq        uint32 // the owner's insertion sequence
	id         uint64
	prio       uint64
}

// NewUnion returns an empty interval union with its own OwnerIndex. The
// zero Union value is also ready to use (it creates its index on first
// Insert), which lets the allocator keep one []Union value slab per
// register file; UseIndex makes the slab share one index.
func NewUnion() *Union { return &Union{idx: new(OwnerIndex)} }

// UseIndex makes the union find its owners through x, which other unions
// may share (see OwnerIndex for the rule sharing needs). Call it while the
// union is empty.
func (u *Union) UseIndex(x *OwnerIndex) { u.idx = x }

// Reset empties the union for reuse, keeping its member list and node
// arena. It clears the current members only, dropping their interval
// pointers so nothing is retained across compiles.
func (u *Union) Reset() {
	clear(u.members)
	u.members = u.members[:0]
	u.root = nil
	u.next = 0
	u.nextID = 0
	u.hits = u.hits[:0]
	u.ci, u.ni = 0, 0
}

// find returns the position of owner's record, or -1.
func (u *Union) find(owner ir.Reg) int {
	if u.idx == nil {
		return -1
	}
	if i := u.idx.lookup(owner); i >= 0 && i < len(u.members) && u.members[i].owner == owner {
		return i
	}
	return -1
}

// Insert adds an interval under the given owner key, replacing any interval
// the owner already holds (the original sequence number is kept, as before:
// replacement does not reorder eviction candidates).
func (u *Union) Insert(owner ir.Reg, iv *Interval) {
	if u.idx == nil {
		u.idx = new(OwnerIndex)
	}
	i := u.find(owner)
	if i >= 0 {
		u.removeSegments(&u.members[i])
	} else {
		i = len(u.members)
		u.members = append(u.members, unionMember{owner: owner, seq: u.next})
		u.next++
		u.idx.set(owner, i)
	}
	m := &u.members[i]
	m.iv = iv
	link := &m.segs
	for _, s := range iv.Segments {
		id := u.nextID
		u.nextID++
		n := u.newNode()
		*n = unionNode{start: s.Start, end: s.End, maxEnd: s.End, owner: owner, seq: m.seq, id: id, prio: splitmix64(id)}
		u.root = treapInsert(u.root, n)
		*link = n
		link = &n.nextSeg
	}
}

// Remove deletes the owner's interval.
func (u *Union) Remove(owner ir.Reg) {
	i := u.find(owner)
	if i < 0 {
		return
	}
	u.removeSegments(&u.members[i])
	last := len(u.members) - 1
	if i != last {
		u.members[i] = u.members[last]
		u.idx.set(u.members[i].owner, i)
	}
	u.members[last] = unionMember{}
	u.members = u.members[:last]
}

func (u *Union) removeSegments(m *unionMember) {
	for n := m.segs; n != nil; n = n.nextSeg {
		u.root = treapDelete(u.root, n.start, n.id)
	}
	m.segs = nil
}

// Len returns the number of member intervals.
func (u *Union) Len() int { return len(u.members) }

// HasConflict reports whether any member overlaps iv.
func (u *Union) HasConflict(iv *Interval) bool {
	for _, s := range iv.Segments {
		if searchOverlap(u.root, s.Start, s.End) {
			return true
		}
	}
	return false
}

// ConflictsWith returns the owners whose intervals overlap iv, ordered by
// insertion sequence (deterministic for deterministic callers).
func (u *Union) ConflictsWith(iv *Interval) []ir.Reg {
	return u.ConflictsWithAppend(nil, iv)
}

// ConflictsWithAppend is ConflictsWith appending into dst[:0], so hot
// callers can reuse one result buffer across queries.
func (u *Union) ConflictsWithAppend(dst []ir.Reg, iv *Interval) []ir.Reg {
	u.hits = u.hits[:0]
	for _, s := range iv.Segments {
		u.hits = collectOverlaps(u.root, s.Start, s.End, u.hits)
	}
	dst = dst[:0]
	if len(u.hits) == 0 {
		return dst
	}
	// The same owner can be hit through several of its segments and several
	// probe segments; sorting by sequence groups the duplicates adjacently.
	// Node ids are unique, so the order is total.
	slices.SortFunc(u.hits, func(a, b *unionNode) int {
		if a.seq != b.seq {
			return cmp.Compare(a.seq, b.seq)
		}
		return cmp.Compare(a.id, b.id)
	})
	for i, n := range u.hits {
		if i > 0 && u.hits[i-1].owner == n.owner {
			continue
		}
		dst = append(dst, n.owner)
	}
	return dst
}

// searchOverlap reports whether the subtree holds a segment intersecting
// [s, e): the CLRS interval search — one root-to-leaf path suffices because
// if the left subtree reaches past s but holds no overlap, every later
// start is already ≥ e.
func searchOverlap(n *unionNode, s, e int) bool {
	for n != nil {
		if n.start < e && n.end > s {
			return true
		}
		if n.left != nil && n.left.maxEnd > s {
			n = n.left
		} else if n.start < e {
			n = n.right
		} else {
			return false
		}
	}
	return false
}

// collectOverlaps appends every node whose segment intersects [s, e),
// pruning subtrees whose maxEnd cannot reach the probe and right subtrees
// whose starts cannot either.
func collectOverlaps(n *unionNode, s, e int, hits []*unionNode) []*unionNode {
	if n == nil || n.maxEnd <= s {
		return hits
	}
	hits = collectOverlaps(n.left, s, e, hits)
	if n.start < e {
		if n.end > s {
			hits = append(hits, n)
		}
		hits = collectOverlaps(n.right, s, e, hits)
	}
	return hits
}

// --- treap machinery ---

func (n *unionNode) refresh() {
	m := n.end
	if n.left != nil && n.left.maxEnd > m {
		m = n.left.maxEnd
	}
	if n.right != nil && n.right.maxEnd > m {
		m = n.right.maxEnd
	}
	n.maxEnd = m
}

func keyLess(aStart int, aID uint64, bStart int, bID uint64) bool {
	if aStart != bStart {
		return aStart < bStart
	}
	return aID < bID
}

func rotateRight(n *unionNode) *unionNode {
	l := n.left
	n.left = l.right
	l.right = n
	n.refresh()
	l.refresh()
	return l
}

func rotateLeft(n *unionNode) *unionNode {
	r := n.right
	n.right = r.left
	r.left = n
	n.refresh()
	r.refresh()
	return r
}

func treapInsert(n, x *unionNode) *unionNode {
	if n == nil {
		return x
	}
	if keyLess(x.start, x.id, n.start, n.id) {
		n.left = treapInsert(n.left, x)
		if n.left.prio > n.prio {
			n = rotateRight(n)
		}
	} else {
		n.right = treapInsert(n.right, x)
		if n.right.prio > n.prio {
			n = rotateLeft(n)
		}
	}
	n.refresh()
	return n
}

func treapDelete(n *unionNode, start int, id uint64) *unionNode {
	if n == nil {
		return nil
	}
	switch {
	case keyLess(start, id, n.start, n.id):
		n.left = treapDelete(n.left, start, id)
	case keyLess(n.start, n.id, start, id):
		n.right = treapDelete(n.right, start, id)
	default:
		if n.left == nil {
			return n.right
		}
		if n.right == nil {
			return n.left
		}
		if n.left.prio > n.right.prio {
			n = rotateRight(n)
			n.right = treapDelete(n.right, start, id)
		} else {
			n = rotateLeft(n)
			n.left = treapDelete(n.left, start, id)
		}
	}
	n.refresh()
	return n
}

// splitmix64 hashes the insertion id into a treap priority: deterministic
// across runs, uniform enough to keep the expected depth logarithmic.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
