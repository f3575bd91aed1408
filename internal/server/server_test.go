package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

const kernelMIR = `func @axpy {
 entry:
  x1 = iconst 0
  %0:fp = fload x1, 0
  %1:fp = fload x1, 1
  %2:fp = fadd %0, %1
  fstore %2, x1, 2
  ret
}
`

const moduleMIR = `module pair
func @alpha {
 entry:
  x1 = iconst 0
  %0:fp = fload x1, 0
  %1:fp = fadd %0, %0
  fstore %1, x1, 1
  ret
}
func @beta {
 entry:
  x1 = iconst 0
  %0:fp = fload x1, 2
  %1:fp = fmul %0, %0
  fstore %1, x1, 3
  ret
}
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, req CompileRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func decodeError(t *testing.T, body []byte) errorResponse {
	t.Helper()
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error envelope: %v\nbody: %s", err, body)
	}
	return e
}

func TestCompileOK(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/compile", CompileRequest{MIR: kernelMIR, Method: "bpc", EmitMIR: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var cr CompileResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Func != "axpy" {
		t.Errorf("func = %q, want axpy", cr.Func)
	}
	if cr.Report.Instrs <= 0 {
		t.Errorf("report.instrs = %d, want > 0", cr.Report.Instrs)
	}
	if cr.MIR == "" || !strings.Contains(cr.MIR, "@axpy") {
		t.Errorf("emit_mir did not return allocated MIR: %q", cr.MIR)
	}
	if cr.WallNS <= 0 {
		t.Errorf("wall_ns = %d, want > 0", cr.WallNS)
	}
}

func TestCompileRawMIRWithQueryOptions(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/compile?method=bcr&simulate=true&regs=16&banks=2",
		"text/plain", strings.NewReader(kernelMIR))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cr CompileResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if cr.Sim == nil || cr.Sim.Steps <= 0 {
		t.Fatalf("simulate=true did not attach sim results: %+v", cr.Sim)
	}
}

func TestCompileDeterministicAcrossRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, first := postJSON(t, ts.URL+"/v1/compile", CompileRequest{MIR: kernelMIR, EmitMIR: true})
	for i := 0; i < 3; i++ {
		_, again := postJSON(t, ts.URL+"/v1/compile", CompileRequest{MIR: kernelMIR, EmitMIR: true})
		var a, b CompileResponse
		if err := json.Unmarshal(first, &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(again, &b); err != nil {
			t.Fatal(err)
		}
		if a.MIR != b.MIR || a.Report != b.Report {
			t.Fatalf("request %d differs from first:\n%s\nvs\n%s", i, again, first)
		}
	}
}

func TestParseError400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/compile", CompileRequest{MIR: "func @x {\n entry:\n  %0 = bogus\n}\n"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %s", resp.StatusCode, body)
	}
	if e := decodeError(t, body); e.Code != CodeParse {
		t.Errorf("code = %q, want %q", e.Code, CodeParse)
	}
}

func TestEmptyBody400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/compile", CompileRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	if e := decodeError(t, body); e.Code != CodeBadRequest {
		t.Errorf("code = %q, want %q", e.Code, CodeBadRequest)
	}
}

func TestUnknownMethod400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/compile", CompileRequest{MIR: kernelMIR, Method: "alchemy"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
}

func TestCompileError422(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// The pipeline rejects linear scan in subgroup mode — a well-formed
	// request the compiler itself refuses, i.e. the 422 path.
	resp, body := postJSON(t, ts.URL+"/v1/compile", CompileRequest{MIR: kernelMIR, Subgroups: 2, LinearScan: true})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422; body %s", resp.StatusCode, body)
	}
	if e := decodeError(t, body); e.Code != CodeCompile {
		t.Errorf("code = %q, want %q", e.Code, CodeCompile)
	}
}

func TestMultiFuncOnSingleEndpoint400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/compile", CompileRequest{MIR: moduleMIR})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "/v1/compile/module") {
		t.Errorf("error should direct to the module endpoint: %s", body)
	}
}

func TestModuleEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/compile/module", CompileRequest{MIR: moduleMIR})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var mr ModuleResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Module != "pair" || len(mr.Funcs) != 2 {
		t.Fatalf("module %q with %d funcs, want pair with 2", mr.Module, len(mr.Funcs))
	}
	if mr.Funcs[0].Func != "alpha" || mr.Funcs[1].Func != "beta" {
		t.Errorf("funcs out of order: %s, %s", mr.Funcs[0].Func, mr.Funcs[1].Func)
	}
	if want := mr.Funcs[0].Report.Instrs + mr.Funcs[1].Report.Instrs; mr.Totals.Instrs != want {
		t.Errorf("totals.instrs = %d, want %d", mr.Totals.Instrs, want)
	}
}

func TestBodyTooLarge413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBody: 128})
	big := strings.Repeat("x", 4096)
	jsonBody, _ := json.Marshal(CompileRequest{MIR: big})
	batchBody, _ := json.Marshal(BatchRequest{Entries: []CompileRequest{{MIR: big}}})
	for _, c := range []struct{ path, contentType, body string }{
		{"/v1/compile", "application/json", string(jsonBody)},
		{"/v1/compile", "text/plain", big},
		{"/v1/compile/batch", "application/json", string(batchBody)},
	} {
		resp, err := http.Post(ts.URL+c.path, c.contentType, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s %s: status %d, want 413; body %s", c.path, c.contentType, resp.StatusCode, body.Bytes())
		}
		if e := decodeError(t, body.Bytes()); e.Code != CodeTooLarge {
			t.Errorf("%s %s: code = %q, want %q", c.path, c.contentType, e.Code, CodeTooLarge)
		}
	}
}

func TestGetRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/compile")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", resp.StatusCode)
	}
}

// TestSaturation429 fills every in-flight slot and the whole queue, then
// asserts the next request is rejected with 429 + Retry-After rather than
// queued without bound.
func TestSaturation429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 1})

	// Occupy the only in-flight slot directly.
	s.slots <- struct{}{}
	defer func() { <-s.slots }()

	// One request may legitimately wait in the queue; park it with a long
	// deadline in the background.
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		resp, _ := http.Post(ts.URL+"/v1/compile?timeout_ms=3000", "text/plain", strings.NewReader(kernelMIR))
		if resp != nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, func() bool { return s.queued.Load() == 1 })

	resp, body := postJSON(t, ts.URL+"/v1/compile", CompileRequest{MIR: kernelMIR})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if e := decodeError(t, body); e.Code != CodeSaturated {
		t.Errorf("code = %q, want %q", e.Code, CodeSaturated)
	}
	if got := s.metrics.rejected.Load(); got < 1 {
		t.Errorf("rejected counter = %d, want >= 1", got)
	}

	// Release the slot so the parked request completes and drains.
	<-s.slots
	<-parked
	s.slots <- struct{}{}
}

// TestDeadlineWhileQueued504 parks a request behind a held slot with a tiny
// deadline and asserts it times out as 504 without ever compiling.
func TestDeadlineWhileQueued504(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 4})
	s.slots <- struct{}{}
	defer func() { <-s.slots }()

	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/compile?timeout_ms=50", "text/plain", strings.NewReader(kernelMIR))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("504 took %v, want prompt expiry", elapsed)
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != CodeDeadline {
		t.Errorf("code = %q, want %q", e.Code, CodeDeadline)
	}
	if got := s.metrics.deadlines.Load(); got < 1 {
		t.Errorf("deadline counter = %d, want >= 1", got)
	}
}

// TestDeadlineNoGoroutineLeak hammers the queued-timeout path and checks
// the goroutine count returns to baseline.
func TestDeadlineNoGoroutineLeak(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 64})
	s.slots <- struct{}{}

	before := runtime.NumGoroutine()
	for i := 0; i < 16; i++ {
		resp, err := http.Post(ts.URL+"/v1/compile?timeout_ms=20", "text/plain", strings.NewReader(kernelMIR))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	<-s.slots
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+4 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines: before %d, after %d", before, runtime.NumGoroutine())
}

func TestHealthzDrainFlip(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
	s.SetDraining(true)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
	var st struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "draining" {
		t.Errorf("status = %q, want draining", st.Status)
	}
}

func TestStatzShape(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheMaxBytes: 1 << 20})
	// Generate a hit and a miss so the rates are meaningful.
	postJSON(t, ts.URL+"/v1/compile", CompileRequest{MIR: kernelMIR})
	postJSON(t, ts.URL+"/v1/compile", CompileRequest{MIR: kernelMIR})

	resp, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Statz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests.Total != 2 || st.Requests.OK != 2 {
		t.Errorf("requests = %+v, want total=2 ok=2", st.Requests)
	}
	if st.Cache.FullHits < 1 {
		t.Errorf("second identical compile should hit the cache: %+v", st.Cache)
	}
	if st.Cache.MaxBytes != 1<<20 {
		t.Errorf("cache.max_bytes = %d, want %d", st.Cache.MaxBytes, 1<<20)
	}
	for _, name := range phaseNames {
		if _, ok := st.Phases[name]; !ok {
			t.Errorf("phase histogram %q missing", name)
		}
	}
	if st.Phases["total"].Count != 2 || st.Phases["total"].P50MS <= 0 {
		t.Errorf("total histogram = %+v, want count=2 and positive p50", st.Phases["total"])
	}
	if st.UptimeS <= 0 {
		t.Errorf("uptime_s = %v, want > 0", st.UptimeS)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}

// ---- loadgen acceptance demos ----

// TestLoadgenSustained is the acceptance-criterion demo: 64 concurrent
// clients replaying a small kernel corpus must see zero 5xx and a >50%
// cache hit rate.
func TestLoadgenSustained(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheMaxBytes: 256 << 20})
	res, err := RunLoadgen(LoadgenConfig{
		URL:         ts.URL,
		Concurrency: 64,
		Requests:    512,
		Kernels:     8,
		RetryOn429:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors5xx != 0 {
		t.Errorf("5xx = %d, want 0", res.Errors5xx)
	}
	if res.OK != 512 {
		t.Errorf("ok = %d, want 512 (rejections should have been retried)", res.OK)
	}
	if res.Statz == nil {
		t.Fatal("no final statz scrape")
	}
	if hr := res.Statz.Cache.FullHitRate; hr <= 0.5 {
		t.Errorf("full cache hit rate = %.3f, want > 0.5", hr)
	}
	if res.ThroughputRPS <= 0 || res.Latency.P50MS <= 0 {
		t.Errorf("degenerate perf summary: %+v", res)
	}
}

// TestLoadgenSaturation points an unthrottled client fleet at a deliberately
// tiny daemon and asserts overload surfaces as 429s (never 5xx) while the
// cache stays under its byte cap.
func TestLoadgenSaturation(t *testing.T) {
	// One compile slot, one queue slot. With the pooled zero-allocation
	// compile path a cold compile is only milliseconds, so whether real
	// traffic ever piles three requests onto a tiny daemon is
	// scheduler-timing dependent (on a single-CPU runner a short compile
	// never yields the processor to the client goroutines). Make overload
	// deterministic instead: occupy the sole compile slot while the
	// fleet's opening wave arrives, so the first request queues and every
	// further concurrent one must be rejected, then release the slot and
	// let the remainder of the run drain normally.
	s, ts := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 1, CacheMaxBytes: 16 << 10})
	s.slots <- struct{}{}
	release := time.AfterFunc(500*time.Millisecond, func() { <-s.slots })
	defer release.Stop()
	res, err := RunLoadgen(LoadgenConfig{
		URL:         ts.URL,
		Concurrency: 32,
		Requests:    256,
		Kernels:     32,
		RetryOn429:  false,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors5xx != 0 {
		t.Errorf("5xx = %d, want 0", res.Errors5xx)
	}
	if got, cap := s.Cache().Stats().BytesRetained, s.Cache().MaxBytes(); got > cap {
		t.Errorf("cache bytes retained %d exceeds cap %d", got, cap)
	}
	if res.Rejected429 == 0 {
		t.Error("no 429s despite a held compile slot; admission control never engaged")
	}
	if res.OK == 0 {
		t.Error("no requests succeeded after the slot was released")
	}
}

func TestCorpusDistinct(t *testing.T) {
	c := Corpus(24)
	if len(c) != 24 {
		t.Fatalf("corpus size %d, want 24", len(c))
	}
	seen := map[string]bool{}
	for _, src := range c {
		if seen[src] {
			t.Fatal("duplicate kernel in corpus")
		}
		seen[src] = true
	}
}

func TestConfigNormalize(t *testing.T) {
	cfg := Config{}.Normalize()
	if cfg.MaxInFlight <= 0 || cfg.MaxQueue != 4*cfg.MaxInFlight {
		t.Errorf("bad defaults: %+v", cfg)
	}
	if cfg.DefaultTimeout != 10*time.Second || cfg.MaxTimeout != 60*time.Second {
		t.Errorf("bad timeout defaults: %+v", cfg)
	}
}

// TestContextPlumbing sanity-checks that a cancelled client context reaches
// the compile pipeline (the server must not compile on a dead request).
func TestContextPlumbing(t *testing.T) {
	s, err := New(Config{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/compile", strings.NewReader(kernelMIR)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 for pre-cancelled request; body %s", w.Code, w.Body)
	}
}

// TestCompileWithVerify runs a request under the phase-boundary verifier:
// the output must match an unverified compile byte for byte, and the
// verified compile must bypass the shared cache (the verification has to
// actually run, so a cached result would be a lie).
func TestCompileWithVerify(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	_, plain := postJSON(t, ts.URL+"/v1/compile", CompileRequest{MIR: kernelMIR, EmitMIR: true})
	resp, verified := postJSON(t, ts.URL+"/v1/compile", CompileRequest{MIR: kernelMIR, EmitMIR: true, Verify: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, verified)
	}
	var a, b CompileResponse
	if err := json.Unmarshal(plain, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(verified, &b); err != nil {
		t.Fatal(err)
	}
	if a.MIR != b.MIR || a.Report != b.Report {
		t.Fatalf("verified compile differs from plain compile:\n%s\nvs\n%s", verified, plain)
	}
	// The first (unverified) request populated the cache; the verified one
	// must not have hit it.
	if hits := s.Cache().Stats().FullHits; hits != 0 {
		t.Errorf("verified compile hit the cache %d times; want bypass", hits)
	}
}

// TestCompileVerifyQueryParam covers the raw-MIR envelope's verify flag.
func TestCompileVerifyQueryParam(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/compile?verify=true", "text/plain", strings.NewReader(kernelMIR))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// TestCompileWithValidate runs a request under the translation
// validator: the output must match a plain compile byte for byte, and
// the validated compile must bypass the shared cache, mirroring the
// verify contract.
func TestCompileWithValidate(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	_, plain := postJSON(t, ts.URL+"/v1/compile", CompileRequest{MIR: kernelMIR, EmitMIR: true})
	resp, validated := postJSON(t, ts.URL+"/v1/compile", CompileRequest{MIR: kernelMIR, EmitMIR: true, Validate: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, validated)
	}
	var a, b CompileResponse
	if err := json.Unmarshal(plain, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(validated, &b); err != nil {
		t.Fatal(err)
	}
	if a.MIR != b.MIR || a.Report != b.Report {
		t.Fatalf("validated compile differs from plain compile:\n%s\nvs\n%s", validated, plain)
	}
	if hits := s.Cache().Stats().FullHits; hits != 0 {
		t.Errorf("validated compile hit the cache %d times; want bypass", hits)
	}
}

// TestCompileValidateQueryParam covers the raw-MIR envelope's validate
// flag.
func TestCompileValidateQueryParam(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/compile?validate=true", "text/plain", strings.NewReader(kernelMIR))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// TestStrictEnvelopes pins that removed options (prior_token, method=auto)
// and misspelt ones (bank) answer 400 bad_request naming the option on
// every compile endpoint, as JSON fields and as query parameters, while
// the requests perfbench and loadgen send still compile. A batch names a
// bad method per entry; everything else fails the whole batch.
func TestStrictEnvelopes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	mir, _ := json.Marshal(kernelMIR)
	loadgen, _ := json.Marshal(CompileRequest{MIR: kernelMIR, Method: "bpc", Simulate: true, TimeoutMS: 5000})
	cases := []struct {
		name   string
		query  string
		body   string // one compile request; the batch wraps it as its only entry
		tail   string // appended after the whole envelope
		raw    bool   // raw-MIR envelope (no batch form)
		status int
		names  string // a 400's message must contain this
	}{
		{name: "prior_token field", body: `{"mir":` + string(mir) + `,"prior_token":"m1-0"}`, status: 400, names: "prior_token"},
		{name: "prior_token query", query: "?prior_token=m1-0", body: `{"mir":` + string(mir) + `}`, status: 400, names: "prior_token"},
		{name: "prior_token raw query", query: "?prior_token=m1-0", raw: true, status: 400, names: "prior_token"},
		{name: "coloring_timeout_ms field", body: `{"mir":` + string(mir) + `,"method":"coloring","coloring_timeout_ms":5000}`, status: 400, names: "coloring_timeout_ms"},
		{name: "coloring_timeout_ms query", query: "?coloring_timeout_ms=5000", body: `{"mir":` + string(mir) + `,"method":"coloring"}`, status: 400, names: "coloring_timeout_ms"},
		{name: "coloring_timeout_ms raw query", query: "?method=coloring&coloring_timeout_ms=5000", raw: true, status: 400, names: "coloring_timeout_ms"},
		{name: "method auto", body: `{"mir":` + string(mir) + `,"method":"auto"}`, status: 400, names: `"auto"`},
		{name: "method auto raw query", query: "?method=auto", raw: true, status: 400, names: `"auto"`},
		{name: "misspelt bank", body: `{"mir":` + string(mir) + `,"bank":4}`, status: 400, names: `"bank"`},
		{name: "misspelt bank raw query", query: "?bank=4&method=bpc", raw: true, status: 400, names: `"bank"`},
		{name: "trailing data", body: `{"mir":` + string(mir) + `}`, tail: ` {}`, status: 400, names: "after the top-level object"},
		{name: "perfbench fields", body: `{"mir":` + string(mir) + `,"banks":4,"method":"bpc","emit_mir":true}`, status: 200},
		{name: "loadgen request", body: string(loadgen), status: 200},
		{name: "raw query options", query: "?banks=4&emit_mir=true&method=bpc", raw: true, status: 200},
	}
	for _, c := range cases {
		for _, endpoint := range []string{"/v1/compile", "/v1/compile/module", "/v1/compile/batch"} {
			batch := endpoint == "/v1/compile/batch"
			if c.raw && batch {
				continue
			}
			body, contentType := c.body, "application/json"
			if c.raw {
				body, contentType = kernelMIR, "text/plain"
			} else if batch {
				body = `{"entries":[` + body + `]}`
			}
			resp, err := http.Post(ts.URL+endpoint+c.query, contentType, strings.NewReader(body+c.tail))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			out.ReadFrom(resp.Body)
			resp.Body.Close()
			status, e := resp.StatusCode, errorResponse{}
			if status != http.StatusOK {
				e = decodeError(t, out.Bytes())
			} else if batch {
				var br BatchResponse
				if err := json.Unmarshal(out.Bytes(), &br); err != nil || len(br.Results) != 1 {
					t.Fatalf("%s %s: batch body %s", c.name, endpoint, out.Bytes())
				}
				if br.Results[0].Error != nil {
					status, e = http.StatusBadRequest, *br.Results[0].Error
				}
			}
			if status != c.status {
				t.Errorf("%s %s: status %d, want %d: %s", c.name, endpoint, status, c.status, out.Bytes())
				continue
			}
			if c.status == http.StatusBadRequest && (e.Code != CodeBadRequest || !strings.Contains(e.Error, c.names)) {
				t.Errorf("%s %s: error %+v, want %s naming %s", c.name, endpoint, e, CodeBadRequest, c.names)
			}
		}
	}
}

// resubmitModule compiles moduleMIR and then edited on one server. It
// returns the full-layer hits and misses of the second compile and its
// answer, and fails the test unless that answer is exactly what a fresh
// server answers for edited.
func resubmitModule(t *testing.T, edited string) (hits, misses int64, got ModuleResponse) {
	t.Helper()
	s, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/compile/module", CompileRequest{MIR: moduleMIR})
	before := s.Statz().Cache
	_, body := postJSON(t, ts.URL+"/v1/compile/module", CompileRequest{MIR: edited, EmitMIR: true})
	after := s.Statz().Cache
	_, fresh := newTestServer(t, Config{})
	_, freshBody := postJSON(t, fresh.URL+"/v1/compile/module", CompileRequest{MIR: edited, EmitMIR: true})
	var want ModuleResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(freshBody, &want); err != nil {
		t.Fatal(err)
	}
	got.WallNS, want.WallNS = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cached answer differs from a fresh server's:\n%+v\nvs\n%+v", got, want)
	}
	return after.FullHits - before.FullHits, after.FullMisses - before.FullMisses, got
}

// TestModuleEditReusesCache: after one function of a module is edited, a
// resubmission compiles only that function — the full-layer cache serves
// the other — and answers exactly what a fresh server answers.
func TestModuleEditReusesCache(t *testing.T) {
	edited := strings.Replace(moduleMIR, "fstore %1, x1, 3", "fstore %1, x1, 5", 1)
	if hits, misses, _ := resubmitModule(t, edited); hits != 1 || misses != 1 {
		t.Errorf("edited resubmission: %d full hits, %d misses; want 1 and 1", hits, misses)
	}
}

// TestModuleRenameReusesCache: renaming every function of a module, bodies
// unchanged, compiles nothing — fingerprints elide names — and the cache
// serves each function under its new name.
func TestModuleRenameReusesCache(t *testing.T) {
	renamed := strings.ReplaceAll(strings.ReplaceAll(moduleMIR, "@alpha", "@gamma"), "@beta", "@delta")
	hits, misses, got := resubmitModule(t, renamed)
	if hits != 2 || misses != 0 {
		t.Errorf("renamed resubmission: %d full hits, %d misses; want 2 and 0", hits, misses)
	}
	for i, want := range []string{"delta", "gamma"} {
		if got.Funcs[i].Func != want || !strings.Contains(got.Funcs[i].MIR, "@"+want) {
			t.Errorf("funcs[%d] = %q, want %q served under its new name:\n%s", i, got.Funcs[i].Func, want, got.Funcs[i].MIR)
		}
	}
}

// TestHugeTimeoutCapped: a timeout_ms too large for time.Duration is capped
// at MaxTimeout instead of overflowing into an expired deadline, on the
// compile and the batch endpoint alike.
func TestHugeTimeoutCapped(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, ms := range []int64{9223372036855, 1 << 62} {
		if got := s.timeout(ms); got != s.cfg.MaxTimeout {
			t.Errorf("timeout(%d) = %v, want %v", ms, got, s.cfg.MaxTimeout)
		}
		resp, body := postJSON(t, ts.URL+"/v1/compile", CompileRequest{MIR: kernelMIR, TimeoutMS: ms})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("timeout_ms=%d: status %d: %s", ms, resp.StatusCode, body)
		}
		resp, br := postBatch(t, ts.URL, BatchRequest{Entries: []CompileRequest{{MIR: kernelMIR}}, TimeoutMS: ms})
		if br == nil || br.Results[0].OK == nil {
			t.Errorf("batch timeout_ms=%d: status %d, results %+v", ms, resp.StatusCode, br)
		}
	}
}
