package server

import (
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

func TestCompileColoringTimeoutField(t *testing.T) {
	// A generous deterministic work budget compiles fine; the field also
	// parses from the raw-MIR query envelope.
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/compile",
		CompileRequest{MIR: kernelMIR, Method: "coloring", ColoringTimeoutMS: 5000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	qresp, err := http.Post(ts.URL+"/v1/compile?method=coloring&coloring_timeout_ms=5000",
		"text/plain", strings.NewReader(kernelMIR))
	if err != nil {
		t.Fatal(err)
	}
	qresp.Body.Close()
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("query envelope status %d", qresp.StatusCode)
	}
	resp, body = postJSON(t, ts.URL+"/v1/compile",
		CompileRequest{MIR: kernelMIR, Method: "coloring", ColoringTimeoutMS: -1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative coloring_timeout_ms: status %d, body %s", resp.StatusCode, body)
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

func TestBatchRejectsPortfolioModes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	breq := BatchRequest{Entries: []CompileRequest{{MIR: kernelMIR, Method: "portfolio"}}}
	body, _ := json.Marshal(breq)
	resp, err := http.Post(ts.URL+"/v1/compile/batch", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 1 || br.Results[0].Error == nil {
		t.Fatalf("batch entry with method=portfolio did not error: %+v", br.Results)
	}
	if br.Results[0].Error.Code != CodeBadRequest {
		t.Errorf("code %q, want %q", br.Results[0].Error.Code, CodeBadRequest)
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
