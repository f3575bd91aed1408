// Package router is the fleet front of prescountd: a thin HTTP proxy that
// consistent-hashes each compile's MIR text across N backend daemons.
// Content affinity makes a fleet of per-node caches behave like one big
// cache: every resubmission of a kernel lands on the node whose memory and
// disk already hold its result, and batch entries regroup per backend so
// that duplicates of a kernel meet in one node's dedup.
//
// The key (routingKey) is one pass over the MIR bytes that skips function
// names, the module header line, whitespace, blank lines and "#" comment
// lines, so renamed, re-indented and re-commented copies of a kernel route
// together, as do its JSON and raw envelopes and its batch entries.
// Options are not in the key: every bank count of a kernel reaches the
// node that holds its prefix layer. Other spellings the parser reads alike
// (float formats, "; succs:" against inline successors, function order)
// may route apart. That costs cache hits, and in a batch it can send
// duplicates to different nodes, whose deduped counts the router sums.
// This key replaced one built from parsed fingerprints, which moved every
// kernel once: memory caches re-warm, and since a disk record stays on its
// old node, each kernel compiles once on its new one.
//
// The router parses no MIR and holds no compile state: request bodies,
// query strings and batch entries pass through verbatim, and a compile's
// answer streams back as the backend sends it.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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

// idleConnsPerBackend is the default proxy client's keep-alive pool per
// backend. It covers 64 concurrent clients, the CI fleet smoke's load, on
// one node, so steady traffic reuses connections; net/http's default
// transport keeps 2 and dials again for every request beyond them.
const idleConnsPerBackend = 64

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
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConns = 0 // no fleet-wide cap; the per-backend one holds
		t.MaxIdleConnsPerHost = idleConnsPerBackend
		cfg.Client = &http.Client{Transport: t}
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

// readBody checks the method and reads the request body under MaxBody,
// into one buffer of Content-Length bytes when the client sent one. On a
// failure it answers the client itself and returns ok false.
func (r *Router) readBody(w http.ResponseWriter, req *http.Request) (body []byte, ok bool) {
	if req.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		failJSON(w, http.StatusMethodNotAllowed, server.CodeBadRequest, "POST only")
		return nil, false
	}
	src := http.MaxBytesReader(w, req.Body, r.cfg.MaxBody)
	var err error
	if n := req.ContentLength; n > 0 && n <= r.cfg.MaxBody {
		body = make([]byte, n)
		_, err = io.ReadFull(src, body)
	} else {
		body, err = io.ReadAll(src)
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			failJSON(w, http.StatusRequestEntityTooLarge, server.CodeTooLarge,
				fmt.Sprintf("body exceeds %d bytes", r.cfg.MaxBody))
			return nil, false
		}
		failJSON(w, http.StatusBadRequest, server.CodeBadRequest, err.Error())
		return nil, false
	}
	return body, true
}

// proxyCompile forwards one single/module compile along the ring and
// streams the answer back.
func (r *Router) proxyCompile(w http.ResponseWriter, req *http.Request, path string) {
	body, ok := r.readBody(w, req)
	if !ok {
		return
	}
	contentType := req.Header.Get("Content-Type")
	if contentType == "" {
		contentType = "application/octet-stream"
	}
	// Raw-MIR requests carry their options in the query string; preserve it.
	suffix := path
	if q := req.URL.RawQuery; q != "" {
		suffix += "?" + q
	}
	r.proxied.Add(1)
	resp, b := r.forward(req.Context(), bodyKey(body, contentType), suffix, contentType, body)
	if resp == nil {
		r.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		failJSON(w, http.StatusServiceUnavailable, "no_backend", "no healthy backend")
		return
	}
	defer resp.Body.Close()
	copyHeader(w, resp.Header)
	w.WriteHeader(resp.StatusCode)
	src := &backendReader{Reader: resp.Body}
	if _, err := io.Copy(w, src); err != nil {
		// The status is out, so only a dropped connection tells the client
		// that its answer is incomplete. A backend that broke off
		// mid-answer is demoted like one that refused the connection; a
		// client that hung up, failing a write or cancelling the request,
		// says nothing about the backend.
		if src.err != nil && req.Context().Err() == nil {
			b.failures.Add(1)
			b.state.Store(stateDown)
		}
		panic(http.ErrAbortHandler)
	}
}

// backendReader records the error of the backend side of a streamed
// answer, so a failed copy can tell a broken backend from a gone client.
type backendReader struct {
	io.Reader
	err error
}

func (br *backendReader) Read(p []byte) (int, error) {
	n, err := br.Reader.Read(p)
	if err != nil && err != io.EOF {
		br.err = err
	}
	return n, err
}

// forward walks key's ring successors until a backend produces a
// non-retryable answer, and returns that answer with its body unread and
// the backend that gave it. Retryable outcomes are connection failures
// (the node died mid-request) and 429 (saturated); everything else,
// including compile errors and deadlines, is the authoritative answer. The
// final attempt's 429 passes through, read into memory, so saturation
// stays a 4xx end to end. A send that fails after the request's context
// ended demotes nobody and ends the walk. The response is nil only when no
// healthy backend was available at all, or the client gave up first.
func (r *Router) forward(ctx context.Context, key uint64, path, contentType string, body []byte) (*http.Response, *backend) {
	var last *http.Response
	for hop, b := range r.candidates(key) {
		if hop > 0 {
			b.retries.Add(1)
			r.retryHops.Add(1)
			r.jitteredBackoff(ctx, hop)
			if ctx.Err() != nil {
				break
			}
		}
		b.requests.Add(1)
		resp, err := r.send(ctx, b.url+path, contentType, body)
		if err == nil && resp.StatusCode == http.StatusTooManyRequests {
			// Read the 429 now, so its connection goes back to the pool
			// while the walk goes on.
			var saved []byte
			saved, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			resp.Body = io.NopCloser(bytes.NewReader(saved))
			if err == nil {
				b.failures.Add(1)
				last = resp
				continue
			}
		}
		if err != nil {
			if ctx.Err() != nil {
				break // the client gave up, which says nothing about b
			}
			// Connection failure: demote now rather than waiting for the
			// next probe, and hop to the successor.
			b.failures.Add(1)
			b.state.Store(stateDown)
			continue
		}
		return resp, b
	}
	return last, nil
}

// send posts body to url and returns the response with its body unread.
func (r *Router) send(ctx context.Context, url, contentType string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	return r.cfg.Client.Do(req)
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
