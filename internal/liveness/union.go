package liveness

import (
	"sort"

	"prescount/internal/ir"
)

// Union is a set of disjoint intervals occupying one physical register,
// supporting overlap queries against candidate intervals. It stores member
// segments tagged with their owner so evictions can be computed. Owners
// additionally carry an insertion sequence number so ConflictsWith can
// return them in a deterministic order: callers sum float eviction costs
// over the result, and map-iteration order would make those sums — and
// hence whole allocations — vary between runs of the same process.
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
// A member interval must not be mutated while it is in the union (the tree
// indexes its segments); the allocator only inserts settled intervals.
type Union struct {
	root    *unionNode
	members map[ir.Reg]*Interval
	seq     map[ir.Reg]uint64
	// segIDs holds, per owner, the tree node ids of its segments (aligned
	// with the interval's Segments) so Remove can delete by exact key.
	segIDs map[ir.Reg][]uint64
	next   uint64 // insertion sequence counter
	nextID uint64 // tree node id counter
	// hits is the query scratch buffer.
	hits []*unionNode

	// node storage: a chunked arena reused across Reset cycles. Nodes
	// deleted mid-lifetime are simply abandoned until the next Reset (the
	// arena grows to the peak live-node count and stays there). Chunks are
	// append-only, so outstanding node pointers never move.
	chunks [][]unionNode
	ci, ni int // current chunk index / next free slot in it
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
	start, end  int
	maxEnd      int
	owner       ir.Reg
	id          uint64
	prio        uint64
}

// NewUnion returns an empty interval union. The zero Union value is also
// ready to use (maps are initialized lazily on first Insert), which lets
// the allocator keep one []Union value slab per register file instead of
// one heap object plus three maps per physical register.
func NewUnion() *Union {
	return &Union{
		members: make(map[ir.Reg]*Interval),
		seq:     make(map[ir.Reg]uint64),
		segIDs:  make(map[ir.Reg][]uint64),
	}
}

// Reset empties the union for reuse, keeping the map storage (and its
// buckets) but dropping the tree. Pooled owners/intervals from the previous
// use are cleared so nothing is retained across compiles.
func (u *Union) Reset() {
	u.root = nil
	clear(u.members)
	clear(u.seq)
	clear(u.segIDs)
	u.next = 0
	u.nextID = 0
	u.hits = u.hits[:0]
	u.ci, u.ni = 0, 0
}

// Insert adds an interval under the given owner key, replacing any interval
// the owner already holds (the original sequence number is kept, as before:
// replacement does not reorder eviction candidates).
func (u *Union) Insert(owner ir.Reg, iv *Interval) {
	if u.members == nil {
		u.members = make(map[ir.Reg]*Interval)
		u.seq = make(map[ir.Reg]uint64)
		u.segIDs = make(map[ir.Reg][]uint64)
	}
	if _, ok := u.members[owner]; ok {
		u.removeSegments(owner)
	}
	u.members[owner] = iv
	if _, ok := u.seq[owner]; !ok {
		u.seq[owner] = u.next
		u.next++
	}
	ids := u.segIDs[owner][:0]
	for _, s := range iv.Segments {
		id := u.nextID
		u.nextID++
		n := u.newNode()
		*n = unionNode{start: s.Start, end: s.End, maxEnd: s.End, owner: owner, id: id, prio: splitmix64(id)}
		u.root = treapInsert(u.root, n)
		ids = append(ids, id)
	}
	u.segIDs[owner] = ids
}

// Remove deletes the owner's interval.
func (u *Union) Remove(owner ir.Reg) {
	if _, ok := u.members[owner]; !ok {
		return
	}
	u.removeSegments(owner)
	delete(u.members, owner)
	delete(u.seq, owner)
	delete(u.segIDs, owner)
}

func (u *Union) removeSegments(owner ir.Reg) {
	iv := u.members[owner]
	ids := u.segIDs[owner]
	for i, s := range iv.Segments {
		u.root = treapDelete(u.root, s.Start, ids[i])
	}
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
	sort.Slice(u.hits, func(i, j int) bool {
		si, sj := u.seq[u.hits[i].owner], u.seq[u.hits[j].owner]
		if si != sj {
			return si < sj
		}
		return u.hits[i].id < u.hits[j].id
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
