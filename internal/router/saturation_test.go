package router

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"prescount/internal/server"
)

// TestRouterBatchSaturated: a batch whose every backend answers 429 fails
// each entry as saturated, the daemon's own code for a full queue, not as
// no_backend: the backend is healthy, only busy.
func TestRouterBatchSaturated(t *testing.T) {
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			io.WriteString(w, `{"status":"ok"}`+"\n")
			return
		}
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		io.WriteString(w, `{"error":"1 in flight and 1 queued; retry later","code":"saturated"}`+"\n")
	}))
	t.Cleanup(busy.Close)
	r, err := New(Config{Backends: []string{busy.URL}, HealthEvery: time.Hour, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	r.CheckNow()
	rts := httptest.NewServer(r.Handler())
	t.Cleanup(rts.Close)

	entries := []server.CompileRequest{{MIR: kernelMIR}, {MIR: kernelMIR}, {MIR: "not mir at all"}}
	payload, err := json.Marshal(server.BatchRequest{Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(rts.URL+"/v1/compile/batch", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d, want 200 with per-entry errors", resp.StatusCode)
	}
	var br server.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != len(entries) {
		t.Fatalf("%d results for %d entries", len(br.Results), len(entries))
	}
	for i, res := range br.Results {
		if res.Error == nil {
			t.Errorf("entry %d compiled on a backend that only answers 429", i)
		} else if res.Error.Code != server.CodeSaturated {
			t.Errorf("entry %d: code %q (%s), want %q", i, res.Error.Code, res.Error.Error, server.CodeSaturated)
		}
	}
}
