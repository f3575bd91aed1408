package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"prescount/internal/ir"
	"prescount/internal/workload"
)

// liveHeap returns the bytes of live heap objects after two collections,
// so that sync.Pool victims are dropped too.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// serveInProcess sends one compile request to h and fails the test on any
// answer but 200. The body is the caller's to drop.
func serveInProcess(t *testing.T, h http.Handler, req CompileRequest) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/compile", bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	if rec.Code != http.StatusOK {
		t.Fatalf("regs=%d banks=%d subgroups=%d: status %d: %s", req.Regs, req.Banks, req.Subgroups, rec.Code, rec.Body)
	}
}

// TestCacheHeapTracksEstimate sends serve-sweep-shaped traffic (fresh
// 120-instruction kernels, each at 4, 8 and then 2 banks) through the
// daemon's handler and bounds the heap the compile cache keeps at 1.3x
// its own BytesRetained estimate. A cached entry that pins its request's
// decoded MIR, or carries tables no answer reads, shows here.
func TestCacheHeapTracksEstimate(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	before := liveHeap()
	for seed := int64(1); seed <= 300; seed++ {
		src := ir.Print(workload.RandomSized(seed, 120))
		for _, banks := range []int{4, 8, 2} {
			serveInProcess(t, h, CompileRequest{MIR: src, Banks: banks, Method: "bpc", EmitMIR: true})
		}
	}
	growth := liveHeap() - before
	est := s.Cache().Stats().BytesRetained
	ratio := float64(growth) / float64(est)
	t.Logf("heap growth %.1f MiB, cache estimate %.1f MiB: %.2fx", mib(growth), mib(est), ratio)
	if ratio > 1.3 {
		t.Errorf("heap grew %.2fx the cache's BytesRetained (%.1f vs %.1f MiB), want at most 1.3x", ratio, mib(growth), mib(est))
	}
}

// TestRegisterFilesDoNotGrowHeap compiles the 6-instruction kernel under
// each of the first 2,000 register files with 512 or more registers, in
// (regs, banks, subgroups) order, behind a 1 MiB cache cap. Everything a
// compile builds per file must go with the compile or into the capped
// cache: a process-wide table per file grows without bound.
func TestRegisterFilesDoNotGrowHeap(t *testing.T) {
	const cacheCap = 1 << 20
	s, err := New(Config{CacheMaxBytes: cacheCap})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	before := liveHeap()
	n := 0
	for regs := 512; n < 2000; regs++ {
		for banks := 1; banks <= regs && n < 2000; banks++ {
			for sub := 1; banks*sub <= regs && n < 2000; sub++ {
				if regs%(banks*sub) != 0 {
					continue
				}
				serveInProcess(t, h, CompileRequest{MIR: kernelMIR, Regs: regs, Banks: banks, Subgroups: sub})
				n++
			}
		}
	}
	growth := liveHeap() - before
	t.Logf("heap growth %.1f MiB over %d register files, cache estimate %.2f MiB",
		mib(growth), n, mib(s.Cache().Stats().BytesRetained))
	if bound := int64(4 * cacheCap); growth > bound {
		t.Errorf("heap grew %.1f MiB over %d register files, want at most %.0f MiB", mib(growth), n, mib(bound))
	}
}

func mib(n int64) float64 { return float64(n) / (1 << 20) }
