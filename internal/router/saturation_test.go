package router

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"prescount/internal/ir"
	"prescount/internal/server"
	"prescount/internal/workload"
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
	r, err := New(Config{Backends: []string{busy.URL}, HealthEvery: time.Hour})
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

// TestRouterBatchBusyPrimaryWalks: a sub-batch whose node answers 429
// walks to the next-highest-scoring backend, as a compile does. Over a
// node that is healthy but answers 429 to every compile, and a real
// daemon, the busy node gets the batch's sub-batch once, and every entry,
// whichever node owns it, answers what a routed compile of its kernel
// answers.
func TestRouterBatchBusyPrimaryWalks(t *testing.T) {
	var busyBatches atomic.Int64
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			io.WriteString(w, `{"status":"ok"}`+"\n")
			return
		}
		if r.URL.Path == "/v1/compile/batch" {
			busyBatches.Add(1)
		}
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		io.WriteString(w, `{"error":"1 in flight and 1 queued; retry later","code":"saturated"}`+"\n")
	}))
	t.Cleanup(busy.Close)
	s, err := server.New(server.Config{MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	daemon := httptest.NewServer(s.Handler())
	t.Cleanup(daemon.Close)
	r, err := New(Config{Backends: []string{busy.URL, daemon.URL}, HealthEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	r.CheckNow()
	rts := httptest.NewServer(r.Handler())
	t.Cleanup(rts.Close)

	// Two kernels whose primary is each node, interleaved.
	var owned [2][]string
	for seed := int64(81); len(owned[0]) < 2 || len(owned[1]) < 2; seed++ {
		if seed > 200 {
			t.Fatalf("no two kernels per node among seeds 81..200: %d and %d", len(owned[0]), len(owned[1]))
		}
		mir := ir.Print(workload.RandomSized(seed, 80))
		if b := r.successors(routingKey([]byte(mir)))[0]; len(owned[b]) < 2 {
			owned[b] = append(owned[b], mir)
		}
	}
	var entries []server.CompileRequest
	for _, mir := range []string{owned[0][0], owned[1][0], owned[0][1], owned[1][1]} {
		entries = append(entries, server.CompileRequest{MIR: mir, Method: "bpc", EmitMIR: true})
	}
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
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var br server.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != len(entries) {
		t.Fatalf("%d results for %d entries", len(br.Results), len(entries))
	}
	if n := busyBatches.Load(); n != 1 {
		t.Errorf("the busy node got %d batch requests, want 1", n)
	}
	for i, res := range br.Results {
		if res.OK == nil {
			t.Errorf("entry %d failed: %+v", i, res.Error)
			continue
		}
		cresp, body := postCompile(t, rts.URL, entries[i])
		if cresp.StatusCode != http.StatusOK {
			t.Fatalf("compile of entry %d: status %d: %s", i, cresp.StatusCode, body)
		}
		var single server.CompileResponse
		if err := json.Unmarshal(body, &single); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*res.OK, single.FuncResponse) {
			t.Errorf("entry %d answered differently from its routed compile:\n%+v\nvs\n%+v", i, *res.OK, single.FuncResponse)
		}
	}
}
