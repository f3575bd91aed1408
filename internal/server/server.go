// Package server implements prescountd's compile-as-a-service layer: an
// HTTP daemon that runs the Figure-4 register-allocation pipeline on
// demand. It is the serving-path counterpart of the batch CLIs — the same
// internal/core pipeline behind
//
//	POST /v1/compile          one function (bare or single-function module)
//	POST /v1/compile/module   a whole module, one job per function
//	POST /v1/compile/batch    many independent kernels, one job per unique one
//	GET  /healthz             liveness (503 while draining)
//	GET  /statz               cache hit rates, gauges, latency histograms
//
// with the three properties a long-running service needs that the CLIs do
// not:
//
//   - Admission control: at most MaxInFlight compiles run concurrently and
//     at most MaxQueue requests wait behind them; beyond that the server
//     answers 429 with Retry-After instead of queueing without bound. Every
//     endpoint decodes and parses first, then admits, then runs one job per
//     function (job.go) and releases its slots before encoding the answer.
//   - Per-request deadlines: every request carries a context that expires
//     after its deadline (client-shortenable via timeout_ms), threaded into
//     core.CompileContext so a dead client stops burning CPU at the next
//     phase boundary. Expired compiles answer 504.
//   - A shared, byte-capped compile cache: repeated kernel submissions hit
//     the content-addressed cache from PR 3, with LRU eviction keeping the
//     daemon's footprint bounded (compilecache.NewLimited).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"prescount/internal/bankfile"
	"prescount/internal/compilecache"
	"prescount/internal/conflict"
	"prescount/internal/core"
	"prescount/internal/diskcache"
	"prescount/internal/ir"
	"prescount/internal/regalloc"
)

// Config tunes the daemon. The zero value is usable: Normalize fills every
// field with a production-shaped default.
type Config struct {
	// MaxInFlight bounds concurrently executing compile requests
	// (default: GOMAXPROCS).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an in-flight slot; beyond it
	// the server answers 429 (default: 4 * MaxInFlight).
	MaxQueue int
	// MaxBody caps the request body in bytes (default 8 MiB).
	MaxBody int64
	// DefaultTimeout is the per-request deadline when the client does not
	// pass timeout_ms (default 10s).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines (default 60s).
	MaxTimeout time.Duration
	// CacheMaxBytes caps the shared compile cache; <= 0 means unlimited
	// (the CLI policy — a daemon should set a cap).
	CacheMaxBytes int64
	// DiskCacheDir, when non-empty, layers a persistent on-disk result
	// store under the in-memory compile cache: full-layer misses consult
	// the directory before compiling, and fresh results are written behind.
	// The directory survives restarts — a warm fleet node restarted with
	// the same dir serves its old working set from disk.
	DiskCacheDir string
	// DiskCacheBytes caps the on-disk store with mtime-LRU eviction
	// sweeps; <= 0 means unlimited.
	DiskCacheBytes int64
}

// Normalize returns cfg with defaults filled in.
func (cfg Config) Normalize() Config {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxInFlight
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 8 << 20
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 10 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 60 * time.Second
	}
	return cfg
}

// Server is the compile service. Create with New, mount Handler on an
// http.Server (or use cmd/prescountd).
type Server struct {
	cfg     Config
	cache   *compilecache.Cache
	metrics *metrics

	// disk is the persistent second cache level; nil when not configured.
	disk *diskcache.Store

	// slots is the in-flight semaphore: a request holds the token admit
	// granted, plus any it found idle, while its jobs run.
	slots chan struct{}
	// queued counts requests waiting for a token; bounded by MaxQueue.
	queued atomic.Int64
	// draining flips healthz to 503 during graceful shutdown.
	draining atomic.Bool
}

// New returns a Server with the given configuration and a fresh shared
// compile cache (byte-capped when cfg.CacheMaxBytes > 0). When
// cfg.DiskCacheDir is set the directory is opened (or created) as the
// persistent second cache level; an unusable directory is the only error.
func New(cfg Config) (*Server, error) {
	cfg = cfg.Normalize()
	s := &Server{
		cfg:     cfg,
		cache:   compilecache.NewLimited(cfg.CacheMaxBytes),
		metrics: newMetrics(),
		slots:   make(chan struct{}, cfg.MaxInFlight),
	}
	if cfg.DiskCacheDir != "" {
		store, err := diskcache.Open(cfg.DiskCacheDir, cfg.DiskCacheBytes)
		if err != nil {
			return nil, fmt.Errorf("disk cache: %w", err)
		}
		s.disk = store
		s.cache.SetFullBacking(core.NewDiskBacking(store))
	}
	return s, nil
}

// Config returns the normalized configuration.
func (s *Server) Config() Config { return s.cfg }

// Cache exposes the shared compile cache (for stats and tests).
func (s *Server) Cache() *compilecache.Cache { return s.cache }

// Disk exposes the persistent store (nil when not configured).
func (s *Server) Disk() *diskcache.Store { return s.disk }

// Close flushes and closes the persistent store (if any). Call it after the
// HTTP listener has drained: queued write-behind entries land on disk so
// the next start of this node serves them as hits.
func (s *Server) Close() {
	if s.disk != nil {
		s.disk.Close()
	}
}

// SetDraining marks the server as draining: healthz answers 503 so load
// balancers stop routing, while in-flight requests finish normally.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Handler returns the daemon's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/compile", func(w http.ResponseWriter, r *http.Request) {
		s.serveCompile(w, r, false)
	})
	mux.HandleFunc("/v1/compile/module", func(w http.ResponseWriter, r *http.Request) {
		s.serveCompile(w, r, true)
	})
	mux.HandleFunc("/v1/compile/batch", s.serveBatch)
	mux.HandleFunc("/healthz", s.serveHealthz)
	mux.HandleFunc("/statz", s.serveStatz)
	return mux
}

// Error codes of the JSON error envelope (docs/API.md).
const (
	CodeBadRequest = "bad_request" // 400: malformed envelope/options
	CodeParse      = "parse"       // 400: MIR did not parse
	CodeCompile    = "compile"     // 422: pipeline rejected the function
	CodeSimulate   = "simulate"    // 422: allocated code failed simulation
	CodeSaturated  = "saturated"   // 429: admission queue full
	CodeDeadline   = "deadline"    // 504: request deadline expired
	CodeTooLarge   = "too_large"   // 413: body over MaxBody
)

// statusOf maps each error code to the HTTP status the compile endpoints
// answer it with. A batch entry keeps its code inside the batch's 200.
var statusOf = map[string]int{
	CodeBadRequest: http.StatusBadRequest,
	CodeParse:      http.StatusBadRequest,
	CodeCompile:    http.StatusUnprocessableEntity,
	CodeSimulate:   http.StatusUnprocessableEntity,
	CodeSaturated:  http.StatusTooManyRequests,
	CodeDeadline:   http.StatusGatewayTimeout,
	CodeTooLarge:   http.StatusRequestEntityTooLarge,
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// CompileRequest is the JSON request envelope of both compile endpoints.
// Raw-MIR requests (any content type but application/json) put the source
// in the body and these fields in query parameters.
type CompileRequest struct {
	// MIR is the textual MIR source: a bare function, or a module.
	MIR string `json:"mir"`
	// Regs/Banks/Subgroups describe the register file (defaults 32/2/1;
	// subgroups > 1 enables the DSA subgroup-splitting path).
	Regs      int `json:"regs,omitempty"`
	Banks     int `json:"banks,omitempty"`
	Subgroups int `json:"subgroups,omitempty"`
	// Method is non | bcr | brc | bpc | binpack | coloring (default bpc),
	// or "portfolio", which races bpc, brc, binpack and coloring and keeps
	// the cheapest result.
	Method string `json:"method,omitempty"`
	// THRES overrides Algorithm 1's pressure threshold (0 = default).
	THRES float64 `json:"thres,omitempty"`
	// LinearScan swaps in the linear-scan allocator.
	LinearScan bool `json:"linear_scan,omitempty"`
	// Verify runs the phase-boundary verifier between pipeline stages; a
	// rule violation fails the compile with a diagnostic naming the rule.
	// Verified compiles bypass the shared compile cache.
	Verify bool `json:"verify,omitempty"`
	// Validate runs the translation validator on the allocated output: a
	// symbolic equivalence check of the result against the pre-allocation
	// MIR, failing the compile with a T-rule diagnostic on divergence.
	// Like Verify, validated compiles bypass the shared compile cache.
	Validate bool `json:"validate,omitempty"`
	// Simulate executes the allocated code and attaches dynamic metrics.
	Simulate bool `json:"simulate,omitempty"`
	// VLIW selects the dual-issue cycle model for simulation.
	VLIW bool `json:"vliw,omitempty"`
	// EmitMIR includes the allocated MIR text in the response.
	EmitMIR bool `json:"emit_mir,omitempty"`
	// TimeoutMS sets the request deadline in place of the server default
	// (capped at the server maximum).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ReportJSON mirrors conflict.Report with stable JSON names.
type ReportJSON struct {
	Instrs             int     `json:"instrs"`
	ConflictRelevant   int     `json:"conflict_relevant"`
	StaticConflicts    int     `json:"static_conflicts"`
	ConflictInstrs     int     `json:"conflict_instrs"`
	WeightedConflicts  float64 `json:"weighted_conflicts"`
	SubgroupViolations int     `json:"subgroup_violations"`
	Copies             int     `json:"copies"`
	SpillStores        int     `json:"spill_stores"`
	SpillReloads       int     `json:"spill_reloads"`
}

func reportJSON(r *conflict.Report) ReportJSON {
	return ReportJSON{
		Instrs:             r.Instrs,
		ConflictRelevant:   r.ConflictRelevant,
		StaticConflicts:    r.StaticConflicts,
		ConflictInstrs:     r.ConflictInstrs,
		WeightedConflicts:  r.WeightedConflicts,
		SubgroupViolations: r.SubgroupViolations,
		Copies:             r.Copies,
		SpillStores:        r.SpillStores,
		SpillReloads:       r.SpillReloads,
	}
}

// AllocJSON carries the allocator statistics of one function.
type AllocJSON struct {
	SpilledVRegs int `json:"spilled_vregs"`
	SpillStores  int `json:"spill_stores"`
	SpillReloads int `json:"spill_reloads"`
	LoopSplits   int `json:"loop_splits"`
	Evictions    int `json:"evictions"`
	Remats       int `json:"remats"`
	BankBreaks   int `json:"bank_breaks"`
	// Rescues counts binpacking second-chance re-queues (method binpack).
	Rescues int `json:"rescues,omitempty"`
	// ColoringBailed reports that coloring exhausted its work budget and the
	// function fell back to linear scan (method coloring).
	ColoringBailed bool `json:"coloring_bailed,omitempty"`
}

func allocJSON(a *regalloc.Result) AllocJSON {
	return AllocJSON{
		SpilledVRegs:   a.SpilledVRegs,
		SpillStores:    a.SpillStores,
		SpillReloads:   a.SpillReloads,
		LoopSplits:     a.LoopSplits,
		Evictions:      a.Evictions,
		Remats:         a.Remats,
		BankBreaks:     a.BankBreaks,
		Rescues:        a.Rescues,
		ColoringBailed: a.ColoringBailed,
	}
}

// SimJSON carries the dynamic metrics of a simulated run.
type SimJSON struct {
	Steps             int64  `json:"steps"`
	Cycles            int64  `json:"cycles"`
	DynamicConflicts  int64  `json:"dynamic_conflicts"`
	ConflictInstances int64  `json:"conflict_instances"`
	MemChecksum       string `json:"mem_checksum"`
}

// FuncResponse is the per-function result.
type FuncResponse struct {
	Func   string     `json:"func"`
	MIR    string     `json:"mir,omitempty"`
	Report ReportJSON `json:"report"`
	Alloc  AllocJSON  `json:"alloc"`
	Sim    *SimJSON   `json:"sim,omitempty"`
	// Method attributes the winning allocator of a portfolio request.
	Method string `json:"method,omitempty"`
}

// CompileResponse is the /v1/compile success body.
type CompileResponse struct {
	FuncResponse
	WallNS int64 `json:"wall_ns"`
}

// ModuleResponse is the /v1/compile/module success body; Funcs are in
// sorted name order.
type ModuleResponse struct {
	Module string         `json:"module"`
	Funcs  []FuncResponse `json:"funcs"`
	Totals ReportJSON     `json:"totals"`
	WallNS int64          `json:"wall_ns"`
}

func (s *Server) serveHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"status":"draining"}`+"\n")
		return
	}
	io.WriteString(w, `{"status":"ok"}`+"\n")
}

func (s *Server) serveStatz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Statz())
}

// serveCompile is the shared handler of both compile endpoints; module
// selects the whole-module variant.
func (s *Server) serveCompile(w http.ResponseWriter, r *http.Request, module bool) {
	start := time.Now()
	if !s.postOnly(w, r) {
		return
	}
	s.metrics.total.Add(1)

	req, code, err := s.decodeRequest(w, r)
	if err != nil {
		s.fail(w, code, err.Error())
		return
	}
	mod, jobs, e := s.prepare(req)
	if e == nil && !module && len(jobs) > 1 {
		e = &errorResponse{Error: fmt.Sprintf("%d functions in request; use /v1/compile/module", len(jobs)), Code: CodeBadRequest}
	}
	if e != nil {
		s.fail(w, e.Code, e.Error)
		return
	}

	// The request deadline covers queueing AND compiling: a request that
	// spent its whole budget waiting for a slot answers 504 immediately
	// rather than starting a compile nobody is waiting for.
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMS))
	defer cancel()
	if !s.admit(w, ctx) {
		return
	}
	s.runJobs(ctx, jobs)

	// Every function has run; a module answers its first failure in name
	// order, whatever order the failures happened in.
	funcs := make([]FuncResponse, len(jobs))
	var totals conflict.Report
	for i, j := range jobs {
		if j.err != nil {
			s.fail(w, j.err.Code, j.err.Error)
			return
		}
		funcs[i] = j.response(j.f.Name, req.EmitMIR)
		totals.Add(j.res.Report)
	}
	s.metrics.ok.Add(1)
	wall := time.Since(start)
	s.metrics.phase("total").observe(wall)
	if module {
		s.respond(w, http.StatusOK, ModuleResponse{
			Module: mod.Name,
			Funcs:  funcs,
			Totals: reportJSON(&totals),
			WallNS: wall.Nanoseconds(),
		})
		return
	}
	s.respond(w, http.StatusOK, CompileResponse{FuncResponse: funcs[0], WallNS: wall.Nanoseconds()})
}

// prepare is the part of every endpoint's flow that runs before admission
// for one request envelope: its options, its parse, and one job per
// function in name order. An error comes back as the envelope to answer.
func (s *Server) prepare(req *CompileRequest) (*ir.Module, []*job, *errorResponse) {
	opts, err := s.compileOptions(req)
	if err != nil {
		return nil, nil, &errorResponse{Error: err.Error(), Code: CodeBadRequest}
	}
	s.metrics.countMethod(methodLabel(req.Method))

	parseStart := time.Now()
	mod, err := parseSource(req.MIR)
	s.metrics.phase("parse").observe(time.Since(parseStart))
	if err != nil {
		s.metrics.parseErrors.Add(1)
		return nil, nil, &errorResponse{Error: err.Error(), Code: CodeParse}
	}
	funcs := mod.SortedFuncs()
	jobs := make([]*job, len(funcs))
	for i, f := range funcs {
		jobs[i] = &job{f: f, opts: opts, simulate: req.Simulate, vliw: req.VLIW}
	}
	return mod, jobs, nil
}

// admit acquires an in-flight slot, waiting in the bounded queue; it is
// the only place that waits for one. It answers 429 (queue full) or 504
// (deadline expired while queued) itself and returns false; on true the
// caller must release the slot (runJobs does).
func (s *Server) admit(w http.ResponseWriter, ctx context.Context) bool {
	if s.takeIdle() {
		return true
	}
	if q := s.queued.Add(1); q > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		s.metrics.rejected.Add(1)
		// Retry-After names the default deadline as a conservative "the
		// queue ahead of you is full" hint.
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.DefaultTimeout/time.Second)+1))
		s.fail(w, CodeSaturated,
			fmt.Sprintf("%d in flight and %d queued; retry later", s.cfg.MaxInFlight, s.cfg.MaxQueue))
		return false
	}
	defer s.queued.Add(-1)
	select {
	case s.slots <- struct{}{}:
		return true
	case <-ctx.Done():
		s.metrics.deadlines.Add(1)
		s.fail(w, CodeDeadline, "deadline expired while queued")
		return false
	}
}

// takeIdle takes a slot if one is free at this moment, without waiting.
func (s *Server) takeIdle() bool {
	select {
	case s.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// decodeRequest reads either envelope: JSON (application/json) or raw MIR
// with query-parameter options. Both are strict: an unknown JSON field or
// query parameter answers 400 naming it, so a misspelt or removed option
// never silently compiles under the defaults.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (*CompileRequest, string, error) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	req := &CompileRequest{}
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		if code, err := decodeJSON(body, r, s.cfg.MaxBody, req); err != nil {
			return nil, code, err
		}
	} else {
		src, err := io.ReadAll(body)
		if err != nil {
			code, err := bodyError(err, s.cfg.MaxBody, "reading body")
			return nil, code, err
		}
		req.MIR = string(src)
		if err := optionsFromQuery(req, r.URL.Query()); err != nil {
			return nil, CodeBadRequest, err
		}
	}
	if strings.TrimSpace(req.MIR) == "" {
		return nil, CodeBadRequest, errors.New("empty MIR source")
	}
	return req, "", nil
}

// decodeJSON decodes one JSON envelope from the capped body into v,
// streaming it rather than reading the body first. It rejects query
// parameters (a JSON envelope carries every option in its body), unknown
// fields and anything after the object.
func decodeJSON(body io.Reader, r *http.Request, maxBody int64, v any) (string, error) {
	if q := r.URL.Query(); len(q) > 0 {
		return CodeBadRequest, fmt.Errorf("unknown query parameter %q (JSON requests carry options in the body)", sortedParams(q)[0])
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return bodyError(err, maxBody, "request JSON")
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("data after the top-level object")
		}
		return bodyError(err, maxBody, "request JSON")
	}
	return "", nil
}

// bodyError classifies an error met while reading a request body:
// CodeTooLarge when the body ran past the cap, otherwise CodeBadRequest
// with the error under prefix.
func bodyError(err error, maxBody int64, prefix string) (string, error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return CodeTooLarge, fmt.Errorf("body exceeds %d bytes", maxBody)
	}
	return CodeBadRequest, fmt.Errorf("%s: %w", prefix, err)
}

// queryFields maps every query parameter of the raw-MIR envelope
// (`curl --data-binary @kernel.mir '…/v1/compile?method=bpc'`) to the
// request field it sets.
func queryFields(req *CompileRequest) map[string]any {
	return map[string]any{
		"regs":        &req.Regs,
		"banks":       &req.Banks,
		"subgroups":   &req.Subgroups,
		"method":      &req.Method,
		"thres":       &req.THRES,
		"linear_scan": &req.LinearScan,
		"verify":      &req.Verify,
		"validate":    &req.Validate,
		"simulate":    &req.Simulate,
		"vliw":        &req.VLIW,
		"emit_mir":    &req.EmitMIR,
		"timeout_ms":  &req.TimeoutMS,
	}
}

// optionsFromQuery fills req from the raw-MIR envelope's query parameters
// in sorted name order. An empty value leaves its option at the default;
// a parameter queryFields does not name fails the request.
func optionsFromQuery(req *CompileRequest, q url.Values) error {
	fields := queryFields(req)
	for _, name := range sortedParams(q) {
		field, ok := fields[name]
		if !ok {
			return fmt.Errorf("unknown query parameter %q", name)
		}
		v := q.Get(name)
		if v == "" {
			continue
		}
		var err error
		switch p := field.(type) {
		case *int:
			*p, err = strconv.Atoi(v)
		case *int64:
			*p, err = strconv.ParseInt(v, 10, 64)
		case *float64:
			*p, err = strconv.ParseFloat(v, 64)
		case *bool:
			*p, err = strconv.ParseBool(v)
		case *string:
			*p = v
		}
		if err != nil {
			return fmt.Errorf("query %s=%q: %w", name, v, err)
		}
	}
	return nil
}

// sortedParams returns the query's parameter names in sorted order, so the
// first unknown one named in an error does not depend on map order.
func sortedParams(q url.Values) []string {
	names := make([]string, 0, len(q))
	for name := range q {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// timeout returns the deadline of a request asking for timeoutMS: the
// server default when unset, and never more than MaxTimeout. The cap is
// compared in milliseconds, before any conversion, so a huge timeout_ms
// cannot overflow time.Duration into an already-expired deadline.
func (s *Server) timeout(timeoutMS int64) time.Duration {
	if timeoutMS <= 0 {
		return s.cfg.DefaultTimeout
	}
	if timeoutMS >= s.cfg.MaxTimeout.Milliseconds() {
		return s.cfg.MaxTimeout
	}
	return time.Duration(timeoutMS) * time.Millisecond
}

// methodLabel normalizes a request's method string for the per-method
// request counters ("" is the default method).
func methodLabel(m string) string {
	if m == "" {
		return core.MethodBPC.String()
	}
	return m
}

// compileOptions maps the request envelope onto core.Options, wiring in
// the shared cache.
func (s *Server) compileOptions(req *CompileRequest) (core.Options, error) {
	method := core.MethodBPC
	if req.Method != "" {
		var err error
		if method, err = core.ParseMethod(req.Method); err != nil {
			return core.Options{}, err
		}
	}
	regs, banks, subgroups := req.Regs, req.Banks, req.Subgroups
	if regs == 0 {
		regs = 32
	}
	if banks == 0 {
		banks = 2
	}
	if subgroups == 0 {
		subgroups = 1
	}
	if regs < 0 || banks < 0 || subgroups < 0 {
		return core.Options{}, fmt.Errorf("negative register file parameter (regs=%d banks=%d subgroups=%d)", regs, banks, subgroups)
	}
	file := bankfile.Config{NumRegs: regs, NumBanks: banks, NumSubgroups: subgroups, ReadPorts: 1}
	if err := file.Normalize().Validate(); err != nil {
		return core.Options{}, fmt.Errorf("register file: %w", err)
	}
	return core.Options{
		File:       file,
		Method:     method,
		Subgroups:  subgroups > 1,
		THRES:      req.THRES,
		LinearScan: req.LinearScan,
		VerifyEach: req.Verify,
		Validate:   req.Validate,
		Cache:      s.cache,
	}, nil
}

// parseSource reads a module, falling back to a bare function, mirroring
// prescountc's input handling.
func parseSource(src string) (*ir.Module, error) {
	mod, err := ir.ParseModule(src)
	if err != nil {
		return nil, err
	}
	if len(mod.Funcs) == 0 {
		f, ferr := ir.Parse(src)
		if ferr != nil {
			return nil, ferr
		}
		mod.Add(f)
	}
	return mod, nil
}

func isDeadline(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// fail answers the error envelope under the status statusOf gives code.
func (s *Server) fail(w http.ResponseWriter, code, msg string) {
	s.respond(w, statusOf[code], errorResponse{Error: msg, Code: code})
}

// postOnly answers 405 to anything but a POST and reports whether r may
// proceed.
func (s *Server) postOnly(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodPost {
		return true
	}
	w.Header().Set("Allow", http.MethodPost)
	s.respond(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only", Code: CodeBadRequest})
	return false
}

func (s *Server) respond(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(body)
}
