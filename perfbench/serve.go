package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"prescount"
	"prescount/internal/workload"
)

// serveClients is the closed-loop client count: the daemon's callers are
// build jobs that each wait for their reply, and one process drives at
// most two cores.
const serveClients = 2

// serveSetups is how often a serve run brings the stack up; setup_s is the
// median, and the last stack serves the timed phase.
const serveSetups = 3

// hotCorpusSize is the loadgen replay corpus size of serve-hot.
const hotCorpusSize = 64

// corpusMaxBytes mirrors the loadgen's corpus filter: the giant unrolled
// suite kernels model batch compiles, not interactive traffic.
const corpusMaxBytes = 64 << 10

// sweepKernelInstrs is serve-sweep's kernel size, and sweepWalk the bank
// counts each kernel visits in order: the exploration walk the daemon's
// speculator precompiles neighbours for.
const sweepKernelInstrs = 120

var sweepWalk = []int{4, 8, 2}

// sweepKernelRate sizes serve-sweep's fixed work: kernels per client per
// second of --seconds, about what two clients complete on two cores. Fixed
// work keeps the daemon's cache growth, and so its peak RSS, the same in
// every run.
const sweepKernelRate = 36

// sweepCapFactor bounds a serve-sweep timed phase at this multiple of
// --seconds, so a pathologically slow daemon still ends the run in time.
const sweepCapFactor = 5

// sweepMemSize covers every address RandomSized kernels touch.
const sweepMemSize = 1024

// kernel is one request input: its MIR and the memory it needs to run.
type kernel struct {
	name    string
	src     string
	memSize int
}

// compileRequest is the subset of the /v1/compile JSON envelope the
// benchmark sends (docs/API.md).
type compileRequest struct {
	MIR     string `json:"mir"`
	Banks   int    `json:"banks"`
	Method  string `json:"method"`
	EmitMIR bool   `json:"emit_mir"`
}

// compileResponse is the subset of the /v1/compile success body the
// benchmark checks.
type compileResponse struct {
	MIR    string `json:"mir"`
	Report struct {
		Instrs       int `json:"instrs"`
		Static       int `json:"static_conflicts"`
		Copies       int `json:"copies"`
		SpillStores  int `json:"spill_stores"`
		SpillReloads int `json:"spill_reloads"`
	} `json:"report"`
}

func renderBody(src string, banks int) ([]byte, error) {
	return json.Marshal(compileRequest{MIR: src, Banks: banks, Method: "bpc", EmitMIR: true})
}

// hotCorpus is the loadgen replay corpus: the first DSA-OP and CNN-KERNEL
// functions whose MIR is at most corpusMaxBytes.
func hotCorpus() []kernel {
	var out []kernel
	for _, s := range []*prescount.Suite{prescount.SuiteDSAOP(), prescount.SuiteCNN()} {
		for _, p := range s.Programs {
			for _, f := range p.Funcs() {
				if len(out) == hotCorpusSize {
					return out
				}
				if src := prescount.Print(f); len(src) <= corpusMaxBytes {
					out = append(out, kernel{name: s.Name + "/" + p.Name + "/" + f.Name, src: src, memSize: p.MemSize})
				}
			}
		}
	}
	return out
}

// sweepKernel is pool kernel j (j < 0 for warm-up kernels): a
// 120-instruction RandomSized function. The pool does not depend on the
// run's seed, which only deals it out to the clients in a shuffled order,
// so every run compiles the same kernels and the quality counts repeat.
func sweepKernel(j int) kernel {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(j)))
	sum := sha256.Sum256(b[:])
	ks := int64(binary.LittleEndian.Uint64(sum[:8]) >> 1)
	f := workload.RandomSized(ks, sweepKernelInstrs)
	return kernel{name: fmt.Sprintf("k%05d", j), src: prescount.Print(f), memSize: sweepMemSize}
}

// stack is one running prescountd behind one prescountrouter, both the
// shipped binaries with default flags apart from addresses and the
// router's backend list.
type stack struct {
	daemon, router       *exec.Cmd
	daemonURL, routerURL string
	ctl                  *http.Client
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func startProc(bin string, args ...string) (*exec.Cmd, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	// The serving processes must not outlive the harness.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	return cmd, nil
}

func startStack(binDir string) (*stack, error) {
	daddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	raddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &stack{daemonURL: "http://" + daddr, routerURL: "http://" + raddr, ctl: &http.Client{Timeout: 10 * time.Second}}
	if s.daemon, err = startProc(filepath.Join(binDir, "prescountd"), "-addr", daddr); err != nil {
		return nil, err
	}
	if err := s.waitHealthy(s.daemonURL); err != nil {
		s.stop()
		return nil, err
	}
	// The router probes its backends once at start, so it starts only after
	// the daemon is healthy; otherwise the first probe period decides setup.
	if s.router, err = startProc(filepath.Join(binDir, "prescountrouter"), "-addr", raddr, "-backends", s.daemonURL); err != nil {
		s.stop()
		return nil, err
	}
	if err := s.waitHealthy(s.routerURL); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// waitHealthy polls /healthz every 2ms until it answers 200.
func (s *stack) waitHealthy(base string) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := s.ctl.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s did not become healthy", base)
}

// stop terminates both processes and waits for them to exit.
func (s *stack) stop() {
	for _, cmd := range []*exec.Cmd{s.router, s.daemon} {
		if cmd == nil || cmd.Process == nil {
			continue
		}
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	}
}

// peakRSS sums the peak resident set of both serving processes.
func (s *stack) peakRSS() (float64, error) {
	var total float64
	for _, cmd := range []*exec.Cmd{s.daemon, s.router} {
		v, err := peakRSSMiB(strconv.Itoa(cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// daemonStatz is the subset of prescountd's /statz the benchmark reads.
type daemonStatz struct {
	InFlight int64 `json:"inflight"`
	Queued   int64 `json:"queued"`
	Requests struct {
		Total    int64 `json:"total"`
		Rejected int64 `json:"rejected_429"`
	} `json:"requests"`
	Cache struct {
		FullHits      int64 `json:"full_hits"`
		FullMisses    int64 `json:"full_misses"`
		PrefixHits    int64 `json:"prefix_hits"`
		PrefixMisses  int64 `json:"prefix_misses"`
		AllocHits     int64 `json:"alloc_hits"`
		AllocMisses   int64 `json:"alloc_misses"`
		BytesRetained int64 `json:"bytes_retained"`
		Evictions     int64 `json:"evictions"`
	} `json:"cache"`
	Speculation *struct {
		Scheduled int64 `json:"scheduled"`
		Compiled  int64 `json:"compiled"`
		WarmHits  int64 `json:"warm_hits"`
		Cancelled int64 `json:"cancelled"`
		Dropped   int64 `json:"dropped"`
		Deduped   int64 `json:"deduped"`
	} `json:"speculation"`
	Phases map[string]struct {
		Count  int64   `json:"count"`
		MeanMS float64 `json:"mean_ms"`
	} `json:"phases"`
}

// routerStatz is the subset of prescountrouter's /statz the benchmark reads.
type routerStatz struct {
	Proxied   int64 `json:"proxied"`
	RetryHops int64 `json:"retry_hops"`
}

func (s *stack) statz(base string, v any) error {
	resp, err := s.ctl.Get(base + "/statz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s/statz: HTTP %d", base, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// waitIdle returns once the daemon has nothing in flight or queued and its
// speculator has settled every job it scheduled, unchanged over three
// consecutive 5ms polls.
func (s *stack) waitIdle() error {
	deadline := time.Now().Add(60 * time.Second)
	stable := 0
	var last daemonStatz
	for time.Now().Before(deadline) {
		var st daemonStatz
		if err := s.statz(s.daemonURL, &st); err != nil {
			return err
		}
		idle := st.InFlight == 0 && st.Queued == 0
		if sp := st.Speculation; sp != nil {
			idle = idle && sp.Scheduled == sp.Compiled+sp.Cancelled+sp.Dropped+sp.Deduped
			if last.Speculation != nil && *sp != *last.Speculation {
				idle = false
			}
		}
		if idle {
			stable++
		} else {
			stable = 0
		}
		if stable == 3 {
			return nil
		}
		last = st
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("daemon did not become idle")
}

// client is one closed-loop caller with its own keep-alive connection.
type client struct {
	http *http.Client
	buf  bytes.Buffer
	lat  []time.Duration
}

func newClient() *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr}, lat: make([]time.Duration, 0, 1<<18)}
}

// post sends one pre-rendered compile request and returns the status and
// the body, which stays valid until the next post.
func (c *client) post(url string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/compile", bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	t := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, time.Since(t), err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), time.Since(t), err
}

func (c *client) close() { c.http.CloseIdleConnections() }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// bodyKey fingerprints a response body without its trailing wall_ns field,
// the only part that differs between two answers to the same request.
func bodyKey(body []byte) uint32 {
	if i := bytes.LastIndex(body, []byte(`,"wall_ns":`)); i >= 0 {
		body = body[:i]
	}
	return crc32.Checksum(body, castagnoli)
}

// served is one response kept for the post-run check.
type served struct {
	k     kernel
	banks int
	body  []byte
}

// checkServed parses each response's allocated MIR, simulates it and its
// request's input and compares memory checksums. It returns the quality
// counts and output digest over the responses in order, and the failures.
func checkServed(resps []served) (quality, string, int) {
	h := sha256.New()
	var q quality
	bad := 0
	inputs := map[string]uint64{}
	for _, r := range resps {
		var cr compileResponse
		if err := json.Unmarshal(r.body, &cr); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: FAIL: %s: response: %v\n", r.k.name, err)
			bad++
			continue
		}
		fmt.Fprintf(h, "%s@%d\n%s\n", r.k.name, r.banks, cr.MIR)
		q.Static += int64(cr.Report.Static)
		q.Spills += int64(cr.Report.SpillStores + cr.Report.SpillReloads)
		q.Copies += int64(cr.Report.Copies)
		q.Instrs += int64(cr.Report.Instrs)
		want, ok := inputs[r.k.src]
		if !ok {
			in, err := prescount.Parse(r.k.src)
			if err == nil {
				var sr *prescount.SimResult
				if sr, err = prescount.Simulate(in, prescount.SimOptions{MemSize: r.k.memSize}); err == nil {
					want = sr.MemChecksum
					inputs[r.k.src] = want
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: FAIL: %s: input: %v\n", r.k.name, err)
				bad++
				continue
			}
		}
		out, err := prescount.Parse(cr.MIR)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: FAIL: %s@%d: allocated MIR: %v\n", r.k.name, r.banks, err)
			bad++
			continue
		}
		sr, err := prescount.Simulate(out, prescount.SimOptions{File: prescount.RV2(r.banks), MemSize: r.k.memSize})
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: FAIL: %s@%d: simulating output: %v\n", r.k.name, r.banks, err)
			bad++
			continue
		}
		if sr.MemChecksum != want {
			fmt.Fprintf(os.Stderr, "perfbench: FAIL: %s@%d: allocation changed the memory checksum\n", r.k.name, r.banks)
			bad++
			continue
		}
		q.Dyn += sr.DynamicConflicts
		q.Cycles += sr.Cycles
	}
	return q, hex.EncodeToString(h.Sum(nil)), bad
}

// serveRun is a serve workload's plug-in: the warm-up traffic that ends
// set-up and the per-client request stream of the timed phase.
type serveRun struct {
	// warm[c] is client c's warm-up requests; onWarm, when set, sees each
	// warm-up response.
	warm   [][]servedReq
	onWarm func(req servedReq, body []byte)
	// requests is each client's request count in the timed phase: fixed
	// work. Zero makes the stream unbounded and the phase last --seconds.
	requests int
	// next returns client c's i-th request of the timed phase.
	next func(c, i int) servedReq
	// onResponse inspects client c's 200 response to req and reports
	// whether it is correct. It runs on client c's goroutine.
	onResponse func(c int, req servedReq, body []byte) bool
}

// servedReq is one pre-rendered request.
type servedReq struct {
	idx   int
	k     *kernel
	banks int
	body  []byte
}

// setupServe brings the stack up serveSetups times (each time: process
// start to healthy, warm-up, idle daemon) and keeps the last one running.
func setupServe(cfg config, run serveRun) (time.Duration, *stack, []*client, error) {
	var ds []time.Duration
	for rep := 0; rep < serveSetups; rep++ {
		t := time.Now()
		st, err := startStack(cfg.binDir)
		if err != nil {
			return 0, nil, nil, err
		}
		clients := make([]*client, serveClients)
		for i := range clients {
			clients[i] = newClient()
		}
		err = warmUp(st, clients, run)
		if err == nil {
			err = st.waitIdle()
		}
		ds = append(ds, time.Since(t))
		if err != nil || rep < serveSetups-1 {
			for _, c := range clients {
				c.close()
			}
			st.stop()
			if err != nil {
				return 0, nil, nil, err
			}
			continue
		}
		return medianDuration(ds), st, clients, nil
	}
	panic("unreachable")
}

// warmUp sends every client's warm-up requests through the router, the
// clients concurrently; every answer must be 200.
func warmUp(st *stack, clients []*client, run serveRun) error {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for _, req := range run.warm[ci] {
				status, body, _, err := c.post(st.routerURL, req.body)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("warm-up %s: HTTP %d: %s", req.k.name, status, body)
				}
				if err != nil {
					errs[ci] = err
					return
				}
				if run.onWarm != nil {
					run.onWarm(req, body)
				}
			}
		}(ci, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// phaseResult is what the clients of one timed phase measured.
type phaseResult struct {
	ops, failed int64
	elapsed     time.Duration
	lat         []time.Duration
	// routed and direct sum the paired latencies of a traced phase.
	routed, direct time.Duration
	pairs          int64
	recs           []*recorder
}

// runPhase drives the closed-loop clients against the router for d. When
// traced, every request is also sent straight to the daemon, each pair
// under one op span.
func runPhase(st *stack, clients []*client, run serveRun, d time.Duration, first, limit []int, traced bool) phaseResult {
	var wg sync.WaitGroup
	var mu sync.Mutex
	res := phaseResult{}
	t0 := time.Now()
	for ci, c := range clients {
		c.lat = c.lat[:0]
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			var rec *recorder
			if traced {
				rec = newRecorder(t0)
			}
			var failed int64
			var routed, direct time.Duration
			var pairs int64
			i := first[ci]
			for ; i < limit[ci] && time.Since(t0) < d; i++ {
				req := run.next(ci, i)
				var root, hop int
				if rec != nil {
					rec.nextOp(int64(ci)<<32 | int64(i))
					root = rec.begin("op")
					hop = rec.begin("router")
				}
				status, body, lat, err := c.post(st.routerURL, req.body)
				if rec != nil {
					rec.end(hop)
				}
				c.lat = append(c.lat, lat)
				if err != nil || status != http.StatusOK || !run.onResponse(ci, req, body) {
					failed++
					if err != nil || status != http.StatusOK {
						fmt.Fprintf(os.Stderr, "perfbench: FAIL: %s: status %d err %v\n", req.k.name, status, err)
					}
				}
				if rec != nil {
					id := rec.begin("direct")
					dstatus, dbody, dlat, derr := c.post(st.daemonURL, req.body)
					rec.end(id)
					rec.end(root)
					if derr != nil || dstatus != http.StatusOK || bodyKey(dbody) != bodyKey(body) {
						failed++
					}
					routed += lat
					direct += dlat
					pairs++
				}
			}
			elapsed := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			first[ci] = i
			res.ops += int64(len(c.lat))
			res.failed += failed
			res.lat = append(res.lat, c.lat...)
			res.routed += routed
			res.direct += direct
			res.pairs += pairs
			if elapsed > res.elapsed {
				res.elapsed = elapsed
			}
			if rec != nil {
				res.recs = append(res.recs, rec)
			}
		}(ci, c)
	}
	wg.Wait()
	return res
}

// runServe runs one serve workload: set-up, the timed phase (or, traced,
// an untraced half then a traced half), shutdown and the output checks.
func runServe(cfg config, run serveRun, check func() (quality, string, int, []string)) (*outcome, error) {
	setup, st, clients, err := setupServe(cfg, run)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	defer func() {
		for _, c := range clients {
			c.close()
		}
	}()
	out := newOutcome()
	// A fixed-work stream ends when every client has sent its share, capped
	// in time; an unbounded one ends after --seconds. Traced, the first
	// half of the work or time is untraced and the second half traced.
	next := make([]int, len(clients))
	half := make([]int, len(clients))
	all := make([]int, len(clients))
	d := cfg.seconds
	for c := range clients {
		all[c], half[c] = math.MaxInt, math.MaxInt
		if run.requests > 0 {
			d = sweepCapFactor * cfg.seconds
			all[c], half[c] = run.requests, run.requests/2
		}
	}
	var traced phaseResult
	var untraced phaseResult
	var d0, d1 daemonStatz
	var r0, r1 routerStatz
	if cfg.trace {
		untraced = runPhase(st, clients, run, d/2, next, half, false)
		if err := st.statz(st.daemonURL, &d0); err != nil {
			return nil, err
		}
		if err := st.statz(st.routerURL, &r0); err != nil {
			return nil, err
		}
		traced = runPhase(st, clients, run, d-d/2, next, all, true)
		if err := st.statz(st.daemonURL, &d1); err != nil {
			return nil, err
		}
		if err := st.statz(st.routerURL, &r1); err != nil {
			return nil, err
		}
	} else {
		untraced = runPhase(st, clients, run, d, next, all, false)
	}
	rss, err := st.peakRSS()
	if err != nil {
		return nil, err
	}
	for _, c := range clients {
		c.close()
	}
	st.stop()

	q, digest, bad, problems := check()
	out.problems = append(out.problems, problems...)
	out.quality, out.digest = q, digest
	phases := []phaseResult{untraced, traced}
	for _, p := range phases {
		out.attempted += p.ops
		out.failed += p.failed
	}
	out.failed += int64(bad)

	if cfg.trace {
		serveLayers(out.metrics, untraced, traced, d0, d1, r0, r1)
		all := newRecorder(time.Time{})
		all.merge(traced.recs...)
		if err := writeSpans(cfg.traceOut, all.spans); err != nil {
			return nil, err
		}
		return out, nil
	}
	p50, tail, at := percentiles(untraced.lat)
	for _, w := range checkGaps(cfg.workload, untraced.lat) {
		fmt.Fprintln(os.Stderr, "perfbench: WARN:", w)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d requests over %.2fs; tail is rank %d of %d\n",
		cfg.workload, untraced.ops, untraced.elapsed.Seconds(), at+1, len(untraced.lat))
	m := out.metrics
	m["setup_s"] = metric{setup.Seconds(), "s"}
	m["throughput_per_s"] = metric{float64(untraced.ops) / untraced.elapsed.Seconds(), "1/s"}
	m["latency_p50_ms"] = metric{ms(p50), "ms"}
	m["latency_p99_ms"] = metric{ms(tail), "ms"}
	m["peak_rss_mb"] = metric{rss, "MiB"}
	q.put(m)
	return out, nil
}

func runServeHot(cfg config) (*outcome, error) {
	corpus := hotCorpus()
	bodies := make([][]byte, len(corpus))
	for i, k := range corpus {
		b, err := renderBody(k.src, 2)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	order := rng.Perm(len(corpus))
	// ref holds the warm-up response of each kernel; every timed response
	// must match it byte for byte apart from wall_ns.
	ref := make([][]byte, len(corpus))
	refKey := make([]uint32, len(corpus))
	warm := make([][]servedReq, serveClients)
	for i := range corpus {
		warm[i%serveClients] = append(warm[i%serveClients], servedReq{idx: i, k: &corpus[i], banks: 2, body: bodies[i]})
	}
	run := serveRun{
		warm: warm,
		onWarm: func(req servedReq, body []byte) {
			ref[req.idx] = bytes.Clone(body)
			refKey[req.idx] = bodyKey(body)
		},
		next: func(c, i int) servedReq {
			k := order[(c*len(order)/serveClients+i)%len(order)]
			return servedReq{idx: k, k: &corpus[k], banks: 2, body: bodies[k]}
		},
		onResponse: func(c int, req servedReq, body []byte) bool {
			return bodyKey(body) == refKey[req.idx]
		},
	}
	return runServe(cfg, run, func() (quality, string, int, []string) {
		resps := make([]served, len(corpus))
		for i := range corpus {
			resps[i] = served{k: corpus[i], banks: 2, body: ref[i]}
		}
		q, digest, bad := checkServed(resps)
		return q, digest, bad, nil
	})
}

func runServeSweep(cfg config) (*outcome, error) {
	// Pre-render the pool and deal it out: client c sends the kernels at
	// positions c, c+serveClients, ... of the seed's permutation, each at
	// every bank count of the walk.
	perClient := int(sweepKernelRate * cfg.seconds.Seconds())
	if perClient < 1 {
		perClient = 1
	}
	type rendered struct {
		k      kernel
		bodies [][]byte
	}
	render := func(j int) (rendered, error) {
		r := rendered{k: sweepKernel(j)}
		for _, b := range sweepWalk {
			body, err := renderBody(r.k.src, b)
			if err != nil {
				return r, err
			}
			r.bodies = append(r.bodies, body)
		}
		return r, nil
	}
	pool := make([]rendered, perClient*serveClients)
	for j := range pool {
		r, err := render(j)
		if err != nil {
			return nil, err
		}
		pool[j] = r
	}
	perm := rand.New(rand.NewSource(cfg.seed)).Perm(len(pool))
	// Each client warms up on four kernels of its own, outside the pool.
	warmPool := make([]rendered, 4*serveClients)
	warm := make([][]servedReq, serveClients)
	for j := range warmPool {
		r, err := render(-1 - j)
		if err != nil {
			return nil, err
		}
		warmPool[j] = r
		for b, body := range r.bodies {
			warm[j%serveClients] = append(warm[j%serveClients], servedReq{idx: -1 - j, k: &warmPool[j].k, banks: sweepWalk[b], body: body})
		}
	}
	// kept[c] holds client c's timed responses, in request order.
	kept := make([][]served, serveClients)
	run := serveRun{
		warm:     warm,
		requests: perClient * len(sweepWalk),
		next: func(c, i int) servedReq {
			j, b := perm[c+serveClients*(i/len(sweepWalk))], i%len(sweepWalk)
			return servedReq{idx: j, k: &pool[j].k, banks: sweepWalk[b], body: pool[j].bodies[b]}
		},
		onResponse: func(c int, req servedReq, body []byte) bool {
			kept[c] = append(kept[c], served{k: *req.k, banks: req.banks, body: bytes.Clone(body)})
			return true
		},
	}
	return runServe(cfg, run, func() (quality, string, int, []string) {
		var all []served
		var problems []string
		for c, ks := range kept {
			if want := perClient * len(sweepWalk); len(ks) != want {
				problems = append(problems, fmt.Sprintf("client %d completed %d of its %d requests before the time cap", c, len(ks), want))
			}
			all = append(all, ks...)
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].k.name != all[j].k.name {
				return all[i].k.name < all[j].k.name
			}
			return all[i].banks < all[j].banks
		})
		q, digest, bad := checkServed(all)
		return q, digest, bad, problems
	})
}

// serveLayers fills the per-layer metrics of a traced serve run from the
// paired routed/direct latencies and the daemon and router /statz deltas
// over the traced half.
func serveLayers(m map[string]metric, untraced, traced phaseResult, d0, d1 daemonStatz, r0, r1 routerStatz) {
	phaseMean := func(name string) float64 {
		a, b := d0.Phases[name], d1.Phases[name]
		if n := b.Count - a.Count; n > 0 {
			return (b.MeanMS*float64(b.Count) - a.MeanMS*float64(a.Count)) / float64(n)
		}
		return 0
	}
	total, parse, compile, simulate := phaseMean("total"), phaseMean("parse"), phaseMean("compile"), phaseMean("simulate")
	var routed, direct float64
	if traced.pairs > 0 {
		routed = ms(traced.routed) / float64(traced.pairs)
		direct = ms(traced.direct) / float64(traced.pairs)
	}
	m["server.total_ms"] = metric{total, "ms"}
	m["server.parse_ms"] = metric{parse, "ms"}
	m["server.compile_ms"] = metric{compile, "ms"}
	m["server.admit_decode_ms"] = metric{total - parse - compile - simulate, "ms"}
	m["server.transport_ms"] = metric{direct - total, "ms"}
	m["router.hop_ms"] = metric{routed - direct, "ms"}
	m["router.retries"] = metric{float64(r1.RetryHops - r0.RetryHops), "count"}
	m["server.rejected_429"] = metric{float64(d1.Requests.Rejected - d0.Requests.Rejected), "count"}

	var sc, sw, scan, sdrop float64
	if a, b := d0.Speculation, d1.Speculation; a != nil && b != nil {
		sc, sw = float64(b.Compiled-a.Compiled), float64(b.WarmHits-a.WarmHits)
		scan, sdrop = float64(b.Cancelled-a.Cancelled), float64(b.Dropped-a.Dropped)
	}
	m["server.spec_compiled"] = metric{sc, "count"}
	m["server.spec_warm_hits"] = metric{sw, "count"}
	m["server.spec_cancelled"] = metric{scan, "count"}
	m["server.spec_dropped"] = metric{sdrop, "count"}
	m["server.spec_useful_ratio"] = metric{ratio(sw, sc), "ratio"}

	c0, c1 := d0.Cache, d1.Cache
	m["compilecache.full_hit_ratio"] = metric{hitRatio(c1.FullHits-c0.FullHits, c1.FullMisses-c0.FullMisses), "ratio"}
	m["compilecache.prefix_hit_ratio"] = metric{hitRatio(c1.PrefixHits-c0.PrefixHits, c1.PrefixMisses-c0.PrefixMisses), "ratio"}
	m["compilecache.alloc_hit_ratio"] = metric{hitRatio(c1.AllocHits-c0.AllocHits, c1.AllocMisses-c0.AllocMisses), "ratio"}
	m["compilecache.retained_mb"] = metric{float64(c1.BytesRetained) / (1 << 20), "MiB"}
	m["compilecache.evictions"] = metric{float64(c1.Evictions - c0.Evictions), "count"}

	var untracedMean float64
	if len(untraced.lat) > 0 {
		var sum time.Duration
		for _, l := range untraced.lat {
			sum += l
		}
		untracedMean = ms(sum) / float64(len(untraced.lat))
	}
	m["trace.overhead_ratio"] = metric{ratio(routed, untracedMean), "ratio"}
	fillZeroLayers(m)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func hitRatio(hits, misses int64) float64 { return ratio(float64(hits), float64(hits+misses)) }
