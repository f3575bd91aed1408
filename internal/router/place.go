package router

import (
	"cmp"
	"slices"
)

// successors returns every backend index for key by rendezvous
// (highest-random-weight) hashing: descending score, ties to the lower
// index, so the primary comes first and then the order a retry walks. A
// score depends only on a backend's URL and the key, so routers over the
// same backends agree whatever order lists them; adding a backend moves
// only the keys it now outscores the rest on, and removing one only the
// keys it held. A score costs less than the allocation that would keep
// it, so the comparison recomputes both.
func (r *Router) successors(key uint64) []int {
	order := make([]int, len(r.backends))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(score(r.backends[b].seed, key), score(r.backends[a].seed, key)); c != 0 {
			return c
		}
		return a - b
	})
	return order
}

// urlSeed is FNV-64a of a backend URL, the state its scores continue.
func urlSeed(url string) uint64 {
	h := uint64(offset64)
	for i := 0; i < len(url); i++ {
		h = (h ^ uint64(url[i])) * prime64
	}
	return h
}

// score continues a backend's FNV-64a seed over key's eight little-endian
// bytes and finishes with splitmix64's finalizer, which evens the shares.
func score(seed, key uint64) uint64 {
	h := seed
	for i := 0; i < 8; i++ {
		h = (h ^ key&0xff) * prime64
		key >>= 8
	}
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}
