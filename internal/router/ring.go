package router

import (
	"hash/fnv"
	"sort"
)

// vnodes is the number of ring points per backend.
const vnodes = 128

// ring is a consistent-hash ring over backend indices. Each backend owns
// vnodes points placed by hashing "url#i"; a key routes to the backend
// owning the first point clockwise of the key's hash. Adding or removing
// one backend of n remaps only ~1/n of the key space — the property that
// keeps a fleet's per-node disk caches warm through membership changes
// (every kernel keeps landing on the node whose disk already holds
// its result).
type ring struct {
	points []ringPoint
}

type ringPoint struct {
	hash    uint64
	backend int
}

// newRing places vnodes points per backend URL. The point set depends only
// on urls, so every router over the same backend list computes the same
// routing.
func newRing(urls []string) *ring {
	r := &ring{points: make([]ringPoint, 0, len(urls)*vnodes)}
	var buf [20]byte
	for b, url := range urls {
		for i := 0; i < vnodes; i++ {
			h := fnv.New64a()
			h.Write([]byte(url))
			n := append(append(buf[:0], '#'), itoa(i)...)
			h.Write(n)
			r.points = append(r.points, ringPoint{hash: h.Sum64(), backend: b})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].backend < r.points[j].backend
	})
	return r
}

// itoa is a garbage-free positive-int formatter for vnode labels.
func itoa(n int) []byte {
	if n == 0 {
		return []byte{'0'}
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return buf[i:]
}

// successors returns the distinct backends in ring order starting at key's
// point — the primary first, then the fallback order a retry walks.
func (r *ring) successors(key uint64) []int {
	if len(r.points) == 0 {
		return nil
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	seen := map[int]bool{}
	var out []int
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.backend] {
			seen[p.backend] = true
			out = append(out, p.backend)
		}
	}
	return out
}
