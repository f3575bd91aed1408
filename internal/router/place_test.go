package router

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

func ringURLs(n int) []string {
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://node-%d:8135", i)
	}
	return urls
}

// ciURLs are the backends of the CI fleet smoke.
var ciURLs = []string{"http://127.0.0.1:7711", "http://127.0.0.1:7712", "http://127.0.0.1:7713"}

// newRing builds a router over urls for its placement alone: its health
// loop stops before its first probe.
func newRing(urls []string) *Router {
	r, err := New(Config{Backends: urls, HealthEvery: time.Hour})
	if err != nil {
		panic(err)
	}
	r.Stop()
	return r
}

// primary returns the first backend for key.
func (r *Router) primary(key uint64) int { return r.successors(key)[0] }

// primaryURL returns the URL of the first backend for key.
func (r *Router) primaryURL(key uint64) string { return r.backends[r.primary(key)].url }

// TestRingDeterministic pins that two routers over the same backends
// route every key identically, in whatever order the backends are listed
// — the property that lets many routers front one fleet without
// coordination.
func TestRingDeterministic(t *testing.T) {
	urls := ringURLs(5)
	permuted := []string{urls[3], urls[0], urls[4], urls[2], urls[1]}
	a, b, p := newRing(urls), newRing(urls), newRing(permuted)
	for key := uint64(0); key < 10000; key += 97 {
		if a.primary(key) != b.primary(key) {
			t.Fatalf("key %d routed differently by identical routers", key)
		}
		if a.primaryURL(key) != p.primaryURL(key) {
			t.Fatalf("key %d routed to %s, and to %s over the permuted list", key, a.primaryURL(key), p.primaryURL(key))
		}
	}
}

// TestRingBalance holds every backend's share of 40,000 spread keys
// within 2 points of 1/n, on the CI fleet's URLs and on 3 to 5 nodes.
func TestRingBalance(t *testing.T) {
	const keys = 40000
	for _, urls := range [][]string{ciURLs, ringURLs(3), ringURLs(4), ringURLs(5)} {
		r := newRing(urls)
		counts := make([]int, len(urls))
		for i := 0; i < keys; i++ {
			counts[r.primary(uint64(i)*0x9e3779b97f4a7c15)]++
		}
		for b, c := range counts {
			share := float64(c) / keys
			if math.Abs(share-1/float64(len(urls))) > 0.02 {
				t.Errorf("%s owns %.1f%% of keys over %d nodes (counts %v)", urls[b], share*100, len(urls), counts)
			}
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

// TestRingStabilityOnShrink is the other half of the contract: removing
// any one of 4 nodes moves only the keys it held, and no survivor's key
// changes node. Nodes are compared by URL, since removal shifts indices.
func TestRingStabilityOnShrink(t *testing.T) {
	const keys = 40000
	urls := ringURLs(4)
	before := newRing(urls)
	for gone := range urls {
		after := newRing(slices.Delete(slices.Clone(urls), gone, gone+1))
		moved := 0
		for i := 0; i < keys; i++ {
			key := uint64(i) * 0x9e3779b97f4a7c15
			b, a := before.primaryURL(key), after.primaryURL(key)
			if b == urls[gone] {
				moved++
			} else if a != b {
				t.Fatalf("removing %s moved key %d between survivors %s -> %s", urls[gone], i, b, a)
			}
		}
		if frac := float64(moved) / keys; math.Abs(frac-0.25) > 0.02 {
			t.Errorf("removing %s remapped %.1f%% of keys, want 25%%", urls[gone], frac*100)
		}
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

// TestPlacementIgnoresTrailingSlash: a backend listed with a trailing "/"
// is the same daemon, so two routers that spell it either way send every
// key to the same node and walk the same retries.
func TestPlacementIgnoresTrailingSlash(t *testing.T) {
	slashed := make([]string, len(ciURLs))
	for i, u := range ciURLs {
		slashed[i] = u + "/"
	}
	a, b := newRing(ciURLs), newRing(slashed)
	for i := 0; i < 10000; i++ {
		key := uint64(i) * 0x9e3779b97f4a7c15
		if sa, sb := a.successors(key), b.successors(key); !slices.Equal(sa, sb) {
			t.Fatalf("key %d: successors %v without the slash, %v with it", i, sa, sb)
		}
	}
}

// TestNewRejectsDuplicateBackend: a daemon listed twice, in either
// spelling, would appear twice in a key's retry walk, so a retry could
// re-send to the node that just failed. New refuses the list and names
// the URL.
func TestNewRejectsDuplicateBackend(t *testing.T) {
	for _, urls := range [][]string{
		{"http://127.0.0.1:7711", "http://127.0.0.1:7712", "http://127.0.0.1:7711/"},
		{"http://127.0.0.1:7711", "http://127.0.0.1:7711"},
	} {
		r, err := New(Config{Backends: urls, HealthEvery: time.Hour})
		if err == nil {
			r.Stop()
			t.Fatalf("New accepted %v", urls)
		}
		if !strings.Contains(err.Error(), "http://127.0.0.1:7711") {
			t.Errorf("New(%v): %v, want the duplicate URL named", urls, err)
		}
	}
}

// ringPlacementWant pins the SHA-256 of successors(key), primary first,
// for 10,000 spread keys on 3- and 5-node routers. A change to the
// scoring moves every fleet's placement, so it must update this digest
// on purpose.
const ringPlacementWant = "04a783487b23a586ec6a5219cffc8bf4c45504634dd75900f51b216b349d5b9e"

// TestRingPlacementPinned holds placement to the pinned digest.
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
		t.Fatalf("placement digest %s, want %s", got, ringPlacementWant)
	}
}
