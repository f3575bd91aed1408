// Package router is the fleet front of prescountd: a thin HTTP proxy that
// consistent-hashes each compile's content fingerprint across N backend
// daemons. Fingerprint affinity is what makes a fleet of per-node caches
// behave like one big cache — every resubmission of a kernel lands on the
// node whose memory and disk already hold its result, and batch entries
// regroup per backend so intra-batch dedup happens exactly once per unique
// kernel fleet-wide.
//
// The router holds no compile state of its own: compile request bodies and
// query strings pass through verbatim, as do batch entries inside their
// per-backend sub-batches. A module compile hashes the fingerprints of all
// its functions, so a resubmitted module reaches the node whose cache
// already holds every one of them.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prescount/internal/ir"
	"prescount/internal/server"
)

// Config tunes the router. The zero value plus a backend list is usable.
type Config struct {
	// Backends are the daemon base URLs (e.g. http://10.0.0.1:8135).
	Backends []string
	// VNodes is the virtual-node count per backend (default 128).
	VNodes int
	// HealthEvery is the health-probe period (default 1s).
	HealthEvery time.Duration
	// HealthTimeout bounds one probe (default 2s).
	HealthTimeout time.Duration
	// Retries caps the distinct backends tried per request (default 3,
	// clamped to the backend count).
	Retries int
	// RetryBase is the pre-jitter backoff before each retry hop (default
	// 10ms; the k-th hop waits ~k*RetryBase plus up to 50% jitter).
	RetryBase time.Duration
	// MaxBody caps buffered request bodies (default 8 MiB). The router
	// must buffer to retry, so this is its memory bound per request.
	MaxBody int64
	// Client overrides the proxy HTTP client (tests inject one with short
	// timeouts).
	Client *http.Client
}

func (cfg Config) normalize() Config {
	if cfg.VNodes <= 0 {
		cfg.VNodes = 128
	}
	if cfg.HealthEvery <= 0 {
		cfg.HealthEvery = time.Second
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = 2 * time.Second
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 3
	}
	if cfg.Retries > len(cfg.Backends) {
		cfg.Retries = len(cfg.Backends)
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 10 * time.Millisecond
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 8 << 20
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	return cfg
}

// Backend health states.
const (
	stateHealthy  = int32(iota) // /healthz 200
	stateDraining               // /healthz 503 — node finishing in-flight work
	stateDown                   // probe failed
)

func stateName(s int32) string {
	switch s {
	case stateHealthy:
		return "healthy"
	case stateDraining:
		return "draining"
	default:
		return "down"
	}
}

// backend is one fleet node and its health/traffic counters.
type backend struct {
	url      string
	state    atomic.Int32
	requests atomic.Int64
	retries  atomic.Int64 // hops that landed here after another node failed
	failures atomic.Int64 // conn failures + 429s observed here
}

// Router proxies compile traffic across the fleet. Create with New, mount
// Handler, and Stop when done.
type Router struct {
	cfg      Config
	ring     *ring
	backends []*backend
	start    time.Time

	rejected   atomic.Int64 // 503s answered locally (no healthy backend)
	proxied    atomic.Int64
	batchReqs  atomic.Int64
	retryHops  atomic.Int64
	stopHealth context.CancelFunc
	healthDone chan struct{}

	jmu sync.Mutex // guards: jit
	jit *rand.Rand
}

// New builds the router and starts its health loop. Backends start in the
// healthy state and demote on the first failed probe; call CheckNow for a
// synchronous initial sweep.
func New(cfg Config) (*Router, error) {
	cfg = cfg.normalize()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("router: no backends")
	}
	r := &Router{
		cfg:        cfg,
		ring:       newRing(cfg.Backends, cfg.VNodes),
		start:      time.Now(),
		healthDone: make(chan struct{}),
		jit:        rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	for _, u := range cfg.Backends {
		r.backends = append(r.backends, &backend{url: strings.TrimRight(u, "/")})
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.stopHealth = cancel
	go r.healthLoop(ctx)
	return r, nil
}

// Stop halts the health loop.
func (r *Router) Stop() {
	r.stopHealth()
	<-r.healthDone
}

// Handler returns the router's routes: the three compile endpoints plus
// its own health and stats.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/compile", func(w http.ResponseWriter, req *http.Request) {
		r.proxyCompile(w, req, "/v1/compile")
	})
	mux.HandleFunc("/v1/compile/module", func(w http.ResponseWriter, req *http.Request) {
		r.proxyCompile(w, req, "/v1/compile/module")
	})
	mux.HandleFunc("/v1/compile/batch", r.proxyBatch)
	mux.HandleFunc("/healthz", r.serveHealthz)
	mux.HandleFunc("/statz", r.serveStatz)
	return mux
}

// healthLoop probes every backend each period.
func (r *Router) healthLoop(ctx context.Context) {
	defer close(r.healthDone)
	t := time.NewTicker(r.cfg.HealthEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			r.CheckNow()
		}
	}
}

// CheckNow probes every backend once, synchronously (all in parallel).
func (r *Router) CheckNow() {
	var wg sync.WaitGroup
	for _, b := range r.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			b.state.Store(r.probe(b.url))
		}(b)
	}
	wg.Wait()
}

func (r *Router) probe(url string) int32 {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return stateDown
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return stateDown
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return stateHealthy
	case http.StatusServiceUnavailable:
		return stateDraining
	default:
		return stateDown
	}
}

// routingKey hashes the content of one compile request: the name-blind
// fingerprints of its functions when the MIR parses (so renamed copies of
// a kernel still share a node's caches), the raw source otherwise (the
// chosen backend will produce the authoritative parse error — and produce
// it deterministically on the same node every time).
func routingKey(mir string) uint64 {
	h := fnv.New64a()
	if mod, err := ir.ParseModule(mir); err == nil && len(mod.Funcs) > 0 {
		for _, f := range mod.SortedFuncs() {
			fp := f.Fingerprint()
			h.Write(fp[:])
		}
		return h.Sum64()
	}
	if f, err := ir.Parse(mir); err == nil {
		fp := f.Fingerprint()
		h.Write(fp[:])
		return h.Sum64()
	}
	h.Write([]byte(mir))
	return h.Sum64()
}

// extractMIR pulls the MIR source out of either request envelope.
func extractMIR(body []byte, contentType string) string {
	if strings.HasPrefix(contentType, "application/json") {
		var req server.CompileRequest
		if err := json.Unmarshal(body, &req); err == nil {
			return req.MIR
		}
	}
	return string(body)
}

// candidates returns up to cfg.Retries usable backends for key, healthy
// ones in ring order. Draining and down nodes are skipped; if nothing is
// healthy the caller answers 503.
func (r *Router) candidates(key uint64) []*backend {
	var out []*backend
	for _, i := range r.ring.successors(key) {
		if len(out) >= r.cfg.Retries {
			break
		}
		if r.backends[i].state.Load() == stateHealthy {
			out = append(out, r.backends[i])
		}
	}
	return out
}

// jitteredBackoff sleeps ~hop*RetryBase with up to 50% jitter.
func (r *Router) jitteredBackoff(ctx context.Context, hop int) {
	base := time.Duration(hop) * r.cfg.RetryBase
	r.jmu.Lock()
	j := time.Duration(r.jit.Int63n(int64(r.cfg.RetryBase)/2 + 1))
	r.jmu.Unlock()
	select {
	case <-time.After(base + j):
	case <-ctx.Done():
	}
}

// proxyCompile forwards one single/module compile along the ring.
func (r *Router) proxyCompile(w http.ResponseWriter, req *http.Request, path string) {
	if req.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		failJSON(w, http.StatusMethodNotAllowed, server.CodeBadRequest, "POST only")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, r.cfg.MaxBody))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			failJSON(w, http.StatusRequestEntityTooLarge, server.CodeTooLarge,
				fmt.Sprintf("body exceeds %d bytes", r.cfg.MaxBody))
			return
		}
		failJSON(w, http.StatusBadRequest, server.CodeBadRequest, err.Error())
		return
	}
	contentType := req.Header.Get("Content-Type")
	if contentType == "" {
		contentType = "application/octet-stream"
	}
	key := routingKey(extractMIR(body, contentType))
	// Raw-MIR requests carry their options in the query string; preserve it.
	suffix := path
	if q := req.URL.RawQuery; q != "" {
		suffix += "?" + q
	}
	r.proxied.Add(1)
	status, hdr, respBody, ok := r.forward(req.Context(), key, suffix, contentType, body)
	if !ok {
		r.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		failJSON(w, http.StatusServiceUnavailable, "no_backend", "no healthy backend")
		return
	}
	copyHeader(w, hdr)
	w.WriteHeader(status)
	w.Write(respBody)
}

// forward walks key's ring successors until a backend produces a
// non-retryable answer. Retryable outcomes are connection failures (the
// node died mid-request) and 429 (saturated); everything else — including
// compile errors and deadlines — is the authoritative answer. The final
// attempt's 429 passes through so saturation stays a 4xx end to end; ok is
// false only when no healthy backend was available at all.
func (r *Router) forward(ctx context.Context, key uint64, path, contentType string, body []byte) (int, http.Header, []byte, bool) {
	cands := r.candidates(key)
	var lastStatus int
	var lastHdr http.Header
	var lastBody []byte
	for hop, b := range cands {
		if hop > 0 {
			b.retries.Add(1)
			r.retryHops.Add(1)
			r.jitteredBackoff(ctx, hop)
			if ctx.Err() != nil {
				break
			}
		}
		b.requests.Add(1)
		status, hdr, respBody, err := r.send(ctx, b.url+path, contentType, body)
		if err != nil {
			// Connection failure: demote now rather than waiting for the
			// next probe, and hop to the successor.
			b.failures.Add(1)
			b.state.Store(stateDown)
			continue
		}
		if status == http.StatusTooManyRequests {
			b.failures.Add(1)
			lastStatus, lastHdr, lastBody = status, hdr, respBody
			continue
		}
		return status, hdr, respBody, true
	}
	if lastStatus != 0 {
		return lastStatus, lastHdr, lastBody, true
	}
	return 0, nil, nil, false
}

func (r *Router) send(ctx context.Context, url, contentType string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, respBody, nil
}

func copyHeader(w http.ResponseWriter, hdr http.Header) {
	for _, k := range []string{"Content-Type", "Retry-After"} {
		if v := hdr.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
}

func (r *Router) serveHealthz(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	for _, b := range r.backends {
		if b.state.Load() == stateHealthy {
			io.WriteString(w, `{"status":"ok"}`+"\n")
			return
		}
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	io.WriteString(w, `{"status":"no healthy backend"}`+"\n")
}

// BackendStatz is one backend's row in the router's /statz.
type BackendStatz struct {
	URL      string `json:"url"`
	State    string `json:"state"`
	Requests int64  `json:"requests"`
	Retries  int64  `json:"retries"`
	Failures int64  `json:"failures"`
}

// Statz is the router's /statz document.
type Statz struct {
	UptimeS       float64        `json:"uptime_s"`
	Proxied       int64          `json:"proxied"`
	BatchRequests int64          `json:"batch_requests"`
	RetryHops     int64          `json:"retry_hops"`
	Rejected503   int64          `json:"rejected_503"`
	Backends      []BackendStatz `json:"backends"`
}

// Statz snapshots the router counters.
func (r *Router) Statz() Statz {
	out := Statz{
		UptimeS:       time.Since(r.start).Seconds(),
		Proxied:       r.proxied.Load(),
		BatchRequests: r.batchReqs.Load(),
		RetryHops:     r.retryHops.Load(),
		Rejected503:   r.rejected.Load(),
	}
	for _, b := range r.backends {
		out.Backends = append(out.Backends, BackendStatz{
			URL:      b.url,
			State:    stateName(b.state.Load()),
			Requests: b.requests.Load(),
			Retries:  b.retries.Load(),
			Failures: b.failures.Load(),
		})
	}
	return out
}

func (r *Router) serveStatz(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(r.Statz())
}

func failJSON(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg, "code": code})
}
