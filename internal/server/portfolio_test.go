package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestCompileNewMethods(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, method := range []string{"binpack", "coloring"} {
		resp, body := postJSON(t, ts.URL+"/v1/compile",
			CompileRequest{MIR: kernelMIR, Method: method, EmitMIR: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", method, resp.StatusCode, body)
		}
		var cr CompileResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		if cr.MIR == "" || cr.Report.Instrs <= 0 {
			t.Errorf("%s: empty result: %s", method, body)
		}
	}
}

// TestCompileColoringTimeoutField pins the retired coloring budget field:
// a coloring compile finishes the kernel at the built-in budget without
// bailing, and coloring_timeout_ms, which used to set that budget, answers
// 400 bad_request naming itself as a JSON field and on the raw-MIR query
// envelope, whatever its value. TestStrictEnvelopes covers the field on
// every compile endpoint.
func TestCompileColoringTimeoutField(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/compile", CompileRequest{MIR: kernelMIR, Method: "coloring"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var cr CompileResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Alloc.ColoringBailed {
		t.Errorf("coloring bailed on the kernel at the built-in budget: %s", body)
	}
	mir, _ := json.Marshal(kernelMIR)
	for _, ms := range []string{"5000", "-1"} {
		for _, post := range []struct{ url, contentType, body string }{
			{"/v1/compile", "application/json", `{"mir":` + string(mir) + `,"method":"coloring","coloring_timeout_ms":` + ms + `}`},
			{"/v1/compile?method=coloring&coloring_timeout_ms=" + ms, "text/plain", kernelMIR},
		} {
			resp, err := http.Post(ts.URL+post.url, post.contentType, strings.NewReader(post.body))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			out.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s (%s, %s): status %d, want 400: %s", post.url, post.contentType, ms, resp.StatusCode, out.Bytes())
				continue
			}
			if e := decodeError(t, out.Bytes()); e.Code != CodeBadRequest || !strings.Contains(e.Error, "coloring_timeout_ms") {
				t.Errorf("%s (%s, %s): error %+v, want %s naming coloring_timeout_ms", post.url, post.contentType, ms, e, CodeBadRequest)
			}
		}
	}
}

// TestColoringHonorsRequestDeadline asserts the daemon answers 504 — never
// hangs — when the request deadline is already gone before the coloring
// compile starts: the context threads through core into RunColoring's
// phase-boundary checks.
func TestColoringHonorsRequestDeadline(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/compile?method=coloring",
		strings.NewReader(kernelMIR)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", w.Code, w.Body)
	}
	if got := decodeError(t, w.Body.Bytes()); got.Code != CodeDeadline {
		t.Errorf("code %q, want %q", got.Code, CodeDeadline)
	}
}

func TestCompilePortfolioModule(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/compile/module",
		CompileRequest{MIR: moduleMIR, Method: "portfolio", EmitMIR: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var mr ModuleResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if len(mr.Funcs) != 2 {
		t.Fatalf("funcs = %d, want 2", len(mr.Funcs))
	}
	for _, fr := range mr.Funcs {
		if fr.Method == "" {
			t.Errorf("%s: no winner attribution in portfolio response", fr.Func)
		}
		if fr.MIR == "" {
			t.Errorf("%s: emit_mir missing", fr.Func)
		}
	}
	st := s.Statz()
	if st.Methods == nil {
		t.Fatal("statz has no methods section after a portfolio request")
	}
	if st.Methods.Requests["portfolio"] != 1 {
		t.Errorf("methods.requests[portfolio] = %d, want 1", st.Methods.Requests["portfolio"])
	}
	wins := int64(0)
	for _, n := range st.Methods.RacerWins {
		wins += n
	}
	if wins != 2 {
		t.Errorf("racer wins sum = %d, want 2 (one per function): %+v", wins, st.Methods.RacerWins)
	}
}

func TestCompilePortfolioDeterministicAcrossRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, first := postJSON(t, ts.URL+"/v1/compile/module",
		CompileRequest{MIR: moduleMIR, Method: "portfolio", EmitMIR: true})
	for i := 0; i < 3; i++ {
		_, again := postJSON(t, ts.URL+"/v1/compile/module",
			CompileRequest{MIR: moduleMIR, Method: "portfolio", EmitMIR: true})
		var a, b ModuleResponse
		if err := json.Unmarshal(first, &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(again, &b); err != nil {
			t.Fatal(err)
		}
		if a.Totals != b.Totals {
			t.Fatalf("request %d: totals differ: %+v vs %+v", i, b.Totals, a.Totals)
		}
		for j := range a.Funcs {
			if a.Funcs[j].Method != b.Funcs[j].Method || a.Funcs[j].MIR != b.Funcs[j].MIR {
				t.Fatalf("request %d: %s winner/bytes differ", i, a.Funcs[j].Func)
			}
		}
	}
}

// TestBatchPortfolioEntries pins portfolio in the batch: identical
// portfolio entries share one race, the answer carries the winner and
// matches /v1/compile's, and a knob only a candidate reads keeps two
// portfolio entries apart.
func TestBatchPortfolioEntries(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	race := CompileRequest{MIR: kernelMIR, Method: "portfolio", EmitMIR: true}
	entries := []CompileRequest{race, race, {MIR: kernelMIR, Method: "bpc", EmitMIR: true}}
	resp, br := postBatch(t, ts.URL, BatchRequest{Entries: entries})
	if br == nil {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if br.Deduped != 1 {
		t.Errorf("deduped = %d, want 1 (the second portfolio entry)", br.Deduped)
	}
	for i, r := range br.Results {
		if r.OK == nil {
			t.Fatalf("entry %d failed: %+v", i, r.Error)
		}
	}
	if br.Results[2].OK.Method != "" {
		t.Errorf("bpc entry carries method %q, want none", br.Results[2].OK.Method)
	}

	_, single := newTestServer(t, Config{})
	sresp, body := postJSON(t, single.URL+"/v1/compile", race)
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("single portfolio compile: status %d: %s", sresp.StatusCode, body)
	}
	var want CompileResponse
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	if want.Method == "" {
		t.Fatal("single portfolio compile carries no winner")
	}
	wantJSON, _ := json.Marshal(want.FuncResponse)
	for i := 0; i < 2; i++ {
		gotJSON, _ := json.Marshal(br.Results[i].OK)
		if string(gotJSON) != string(wantJSON) {
			t.Errorf("portfolio entry %d diverged from /v1/compile:\nbatch:  %s\nsingle: %s", i, gotJSON, wantJSON)
		}
	}

	thres := race
	thres.THRES = 0.5
	_, br = postBatch(t, ts.URL, BatchRequest{Entries: []CompileRequest{race, thres}})
	if br == nil || br.Deduped != 0 {
		t.Fatalf("portfolio entries differing in thres deduped: %+v", br)
	}
}

func TestStatzPerMethodRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, m := range []string{"", "bpc", "binpack", "coloring", "brc"} {
		postJSON(t, ts.URL+"/v1/compile", CompileRequest{MIR: kernelMIR, Method: m})
	}
	st := s.Statz()
	if st.Methods == nil {
		t.Fatal("no methods section")
	}
	want := map[string]int64{"bpc": 2, "binpack": 1, "coloring": 1, "brc": 1}
	for m, n := range want {
		if st.Methods.Requests[m] != n {
			t.Errorf("requests[%s] = %d, want %d", m, st.Methods.Requests[m], n)
		}
	}
}
