package server

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestBatchSaturated429: a batch is admitted like any request, so one that
// arrives while every slot is held and the queue is full answers 429 as a
// whole, with Retry-After, instead of waiting for slots.
func TestBatchSaturated429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 1})
	s.slots <- struct{}{}

	parked := make(chan struct{})
	go func() {
		defer close(parked)
		resp, _ := http.Post(ts.URL+"/v1/compile?timeout_ms=3000", "text/plain", strings.NewReader(kernelMIR))
		if resp != nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, func() bool { return s.queued.Load() == 1 })

	resp, br := postBatch(t, ts.URL, BatchRequest{Entries: []CompileRequest{{MIR: kernelMIR}, {MIR: moduleMIR}}})
	<-s.slots
	<-parked
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (results %+v), want 429", resp.StatusCode, br)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if got := s.metrics.rejected.Load(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
}

// twoFailMIR is a module whose two functions both fail the input check
// (a physical FP register outside the 32-register file), in opposite name
// and source order.
const twoFailMIR = `module twofail
func @zeta {
 entry:
  x1 = iconst 0
  f40 = fload x1, 0
  fstore f40, x1, 1
  ret
}
func @alpha {
 entry:
  x1 = iconst 0
  f41 = fload x1, 0
  fstore f41, x1, 1
  ret
}
`

// TestModuleFirstFailureInNameOrder: every function of a module runs, and
// the answer names the first failing one in name order, however the
// failures interleave on the slots.
func TestModuleFirstFailureInNameOrder(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 2})
	var first []byte
	for rep := 0; rep < 20; rep++ {
		resp, body := postJSON(t, ts.URL+"/v1/compile/module", CompileRequest{MIR: twoFailMIR})
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("rep %d: status %d, want 422: %s", rep, resp.StatusCode, body)
		}
		if e := decodeError(t, body); e.Code != CodeCompile || !strings.Contains(e.Error, "alpha") {
			t.Fatalf("rep %d: error %+v, want %s naming alpha", rep, e, CodeCompile)
		}
		if first == nil {
			first = body
		} else if !bytes.Equal(body, first) {
			t.Fatalf("rep %d answered differently:\n%s\nvs\n%s", rep, body, first)
		}
	}
}

// TestModuleOnAdmittedSlotAlone: a module posted while every other slot is
// held runs all its functions on the one slot it was admitted to, never
// waiting for a second, and finishes inside its deadline.
func TestModuleOnAdmittedSlotAlone(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 2})
	s.slots <- struct{}{}
	defer func() { <-s.slots }()

	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/compile/module", CompileRequest{MIR: moduleMIR, TimeoutMS: 2000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("module took %v, past its 2s deadline", elapsed)
	}
	if n := len(s.slots); n != 1 {
		t.Errorf("%d slots held after the module answered, want only the test's 1", n)
	}
}

// TestStatzCompileCountsFunctions: the compile histogram records one
// observation per function, so a module adds its function count.
func TestStatzCompileCountsFunctions(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	before := s.Statz().Phases["compile"].Count
	if resp, body := postJSON(t, ts.URL+"/v1/compile/module", CompileRequest{MIR: moduleMIR}); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := s.Statz().Phases["compile"].Count - before; got != 2 {
		t.Errorf("compile histogram rose by %d, want 2 (one per function)", got)
	}
}
