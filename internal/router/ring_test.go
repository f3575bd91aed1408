package router

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"
)

func ringURLs(n int) []string {
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://node-%d:8135", i)
	}
	return urls
}

// primary returns the first backend for key.
func (r *ring) primary(key uint64) int {
	if len(r.points) == 0 {
		return -1
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	return r.points[i%len(r.points)].backend
}

// TestRingDeterministic pins that two rings over the same backend list
// route every key identically — the property that lets many routers front
// one fleet without coordination.
func TestRingDeterministic(t *testing.T) {
	a := newRing(ringURLs(5))
	b := newRing(ringURLs(5))
	for key := uint64(0); key < 10000; key += 97 {
		if a.primary(key) != b.primary(key) {
			t.Fatalf("key %d routed differently by identical rings", key)
		}
	}
}

// TestRingBalance checks no backend owns a wildly outsized key share.
func TestRingBalance(t *testing.T) {
	const n, keys = 4, 40000
	r := newRing(ringURLs(n))
	counts := make([]int, n)
	for i := 0; i < keys; i++ {
		counts[r.primary(uint64(i)*0x9e3779b97f4a7c15)]++
	}
	for b, c := range counts {
		share := float64(c) / keys
		if share < 0.10 || share > 0.45 {
			t.Fatalf("backend %d owns %.1f%% of keys (counts %v)", b, share*100, counts)
		}
	}
}

// TestRingStabilityOnGrowth is the consistent-hashing contract: adding one
// node to n remaps roughly 1/(n+1) of the key space, and every remapped
// key moves TO the new node (never between survivors) — survivors' disk
// caches stay warm through the membership change.
func TestRingStabilityOnGrowth(t *testing.T) {
	const n, keys = 3, 40000
	before := newRing(ringURLs(n))
	after := newRing(ringURLs(n + 1)) // same first n URLs + one more
	moved := 0
	for i := 0; i < keys; i++ {
		key := uint64(i) * 0x9e3779b97f4a7c15
		b, a := before.primary(key), after.primary(key)
		if b != a {
			moved++
			if a != n {
				t.Fatalf("key %d moved between surviving nodes %d -> %d", i, b, a)
			}
		}
	}
	frac := float64(moved) / keys
	// Ideal is 1/(n+1) = 25%; allow generous variance for 128 vnodes.
	if frac < 0.10 || frac > 0.40 {
		t.Fatalf("growth remapped %.1f%% of keys, want ~25%%", frac*100)
	}
}

// TestRingSuccessorsDistinct pins that the retry walk visits every backend
// exactly once, primary first.
func TestRingSuccessorsDistinct(t *testing.T) {
	r := newRing(ringURLs(4))
	for key := uint64(0); key < 1000; key += 13 {
		succ := r.successors(key)
		if len(succ) != 4 {
			t.Fatalf("key %d: %d successors, want 4", key, len(succ))
		}
		if succ[0] != r.primary(key) {
			t.Fatalf("key %d: successors[0]=%d != primary %d", key, succ[0], r.primary(key))
		}
		seen := map[int]bool{}
		for _, b := range succ {
			if seen[b] {
				t.Fatalf("key %d: backend %d repeated", key, b)
			}
			seen[b] = true
		}
	}
}

// ringPlacementWant pins the SHA-256 of successors(key), primary first,
// for 10,000 spread keys on 3- and 5-node rings. A change to the ring's
// point set or walk order moves every fleet's placement, so it must
// update this digest on purpose.
const ringPlacementWant = "e01227dec3877142edd3775d4c7de2e7294b1d7106f89fec5c384bb4128ee0e4"

// TestRingPlacementPinned holds ring placement to the pinned digest.
func TestRingPlacementPinned(t *testing.T) {
	h := sha256.New()
	for _, n := range []int{3, 5} {
		r := newRing(ringURLs(n))
		for i := 0; i < 10000; i++ {
			for _, b := range r.successors(uint64(i) * 0x9e3779b97f4a7c15) {
				h.Write([]byte{byte(n), byte(b)})
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != ringPlacementWant {
		t.Fatalf("ring placement digest %s, want %s", got, ringPlacementWant)
	}
}
