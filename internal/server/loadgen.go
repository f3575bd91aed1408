package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prescount/internal/ir"
	"prescount/internal/workload"
)

// LoadgenConfig drives one load-generation run against a live daemon.
type LoadgenConfig struct {
	// URL is the target base URL requests are sent to (e.g.
	// http://127.0.0.1:8080) — a daemon, or a prescountrouter fronting a
	// fleet.
	URL string `json:"url"`
	// URLs lists the individual backend daemons when URL is a router:
	// RunLoadgen scrapes each for its final statistics (LoadgenResult.
	// Backends), so fleet runs record per-node cache and disk activity the
	// router's own statz cannot see.
	URLs []string `json:"urls,omitempty"`
	// Concurrency is the number of parallel clients (default 64).
	Concurrency int `json:"concurrency"`
	// Requests is the total request count across clients (default 2048).
	Requests int `json:"requests"`
	// Kernels bounds the distinct-kernel corpus replayed round-robin
	// (default 16). Small corpora under heavy repetition model the
	// repeated-submission traffic the cache exists for.
	Kernels int `json:"kernels"`
	// KernelInstrs, when > 0, replaces the suite-drawn corpus with
	// uniformly sized random kernels of that many instructions.
	// Saturation runs use this to make every cold compile long enough to
	// overlap request arrivals even on a single-CPU runner.
	KernelInstrs int `json:"kernel_instrs,omitempty"`
	// Method is the allocation method requested (default bpc).
	Method string `json:"method"`
	// Simulate asks the server to execute each allocated kernel too.
	Simulate bool `json:"simulate,omitempty"`
	// TimeoutMS is the per-request timeout_ms passed to the server
	// (0 = server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// RetryOn429 makes clients honor a 429 by backing off briefly and
	// retrying, modeling a well-behaved caller (default true via
	// RunLoadgen when not saturating).
	RetryOn429 bool `json:"retry_on_429"`
	// ScrapeEvery samples /statz during the run for the gauge highwater
	// marks (default 100ms).
	ScrapeEvery time.Duration `json:"-"`
}

// LatencySummary is the classic percentile set over request wall times.
type LatencySummary struct {
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
	MeanMS float64 `json:"mean_ms"`
}

// LoadgenResult is one run's outcome — the BENCH_serve.json payload.
type LoadgenResult struct {
	Config        LoadgenConfig  `json:"config"`
	DurationS     float64        `json:"duration_s"`
	Sent          int64          `json:"sent"`
	OK            int64          `json:"ok"`
	Rejected429   int64          `json:"rejected_429"`
	Deadline504   int64          `json:"deadline_504"`
	Errors4xx     int64          `json:"errors_4xx"`
	Errors5xx     int64          `json:"errors_5xx"`
	Retries       int64          `json:"retries"`
	ThroughputRPS float64        `json:"throughput_rps"`
	Latency       LatencySummary `json:"latency"`
	// MaxInFlightSeen / MaxQueuedSeen are gauge highwater marks scraped
	// from /statz while the run was in progress.
	MaxInFlightSeen int64 `json:"max_inflight_seen"`
	MaxQueuedSeen   int64 `json:"max_queued_seen"`
	// Statz is the daemon's final snapshot (cache hit rates, histograms).
	// When URL is a router this decode only fills the fields the router
	// shares with the daemon schema; the per-node truth is in Backends.
	Statz *Statz `json:"statz,omitempty"`
	// Backends holds the final snapshot of each cfg.URLs daemon, in cfg
	// order (fleet runs only).
	Backends []*Statz `json:"backends,omitempty"`
}

// FleetDiskHits sums the disk-cache hits and misses across the per-backend
// snapshots — the warm-restart gate: after a fleet restart on the same disk
// directories, hits must be nonzero.
func (r *LoadgenResult) FleetDiskHits() (hits, misses int64) {
	for _, st := range r.Backends {
		if st != nil && st.Disk != nil {
			hits += st.Disk.Hits
			misses += st.Disk.Misses
		}
	}
	return hits, misses
}

// corpusMaxBytes bounds the rendered size of a corpus kernel. The suites
// contain a few giant unrolled kernels that take seconds per cold compile;
// those model the batch pipeline, not interactive serve traffic, so the
// replay corpus skips them.
const corpusMaxBytes = 64 << 10

// Corpus renders n distinct workload kernels (drawn from the DSA-OP and
// CNN-KERNEL suites, topped up with deterministic random kernels) as
// textual MIR, the replay set of the load generator.
func Corpus(n int) []string {
	return CorpusSized(n, 0)
}

// CorpusSized is Corpus with an explicit instruction count for the random
// kernels. instrs <= 0 gives the default mix (suite kernels topped up with
// 120-instruction random ones); instrs > 0 skips the suite kernels so every
// corpus entry costs a full cold compile of that size.
func CorpusSized(n, instrs int) []string {
	if n <= 0 {
		n = 16
	}
	var out []string
	if instrs <= 0 {
		instrs = 120
		for _, suite := range []*workload.Suite{workload.DSAOP(), workload.CNN()} {
			for _, p := range suite.Programs {
				for _, f := range p.Funcs() {
					if len(out) >= n {
						return out
					}
					if src := ir.Print(f); len(src) <= corpusMaxBytes {
						out = append(out, src)
					}
				}
			}
		}
	}
	for seed := int64(1); len(out) < n; seed++ {
		out = append(out, ir.Print(workload.RandomSized(seed, instrs)))
	}
	return out
}

// RunLoadgen replays the kernel corpus against cfg.URL at the target
// concurrency and reports throughput, latency percentiles and the daemon's
// own statistics. A 5xx from the server is counted, never retried — the
// acceptance gate is zero of them.
func RunLoadgen(cfg LoadgenConfig) (*LoadgenResult, error) {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 64
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 2048
	}
	if cfg.Kernels <= 0 {
		cfg.Kernels = 16
	}
	if cfg.Method == "" {
		cfg.Method = "bpc"
	}
	if cfg.ScrapeEvery <= 0 {
		cfg.ScrapeEvery = 100 * time.Millisecond
	}
	corpus := CorpusSized(cfg.Kernels, cfg.KernelInstrs)
	client := &http.Client{}

	res := &LoadgenResult{Config: cfg}
	var (
		next      atomic.Int64
		latencies = make([][]int64, cfg.Concurrency)
		wg        sync.WaitGroup
	)

	// Mid-run gauge sampler: the loadgen's view of the daemon's admission
	// state, proving the limits engage while traffic is in flight.
	stopScrape := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		t := time.NewTicker(cfg.ScrapeEvery)
		defer t.Stop()
		for {
			select {
			case <-stopScrape:
				return
			case <-t.C:
				if st, err := scrapeStatz(client, cfg.URL); err == nil {
					if st.InFlight > res.MaxInFlightSeen {
						res.MaxInFlightSeen = st.InFlight
					}
					if st.Queued > res.MaxQueuedSeen {
						res.MaxQueuedSeen = st.Queued
					}
				}
			}
		}
	}()

	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(cfg.Requests) {
					return
				}
				mir := corpus[int(i)%len(corpus)]
				for {
					status, latNS, err := postCompile(client, cfg, mir)
					res.countStatus(status, err)
					if status == http.StatusTooManyRequests && cfg.RetryOn429 {
						atomic.AddInt64(&res.Retries, 1)
						time.Sleep(20 * time.Millisecond)
						continue
					}
					if status == http.StatusOK {
						// Latency of accepted requests only; rejections
						// return in microseconds and would skew percentiles.
						latencies[w] = append(latencies[w], latNS)
					}
					break
				}
			}
		}(w)
	}
	wg.Wait()
	res.DurationS = time.Since(start).Seconds()
	close(stopScrape)
	scrapeWG.Wait()

	var all []int64
	for _, l := range latencies {
		all = append(all, l...)
	}
	res.Latency = summarize(all)
	if res.DurationS > 0 {
		res.ThroughputRPS = float64(res.OK) / res.DurationS
	}
	if st, err := scrapeStatz(client, cfg.URL); err == nil {
		res.Statz = st
	}
	for _, u := range cfg.URLs {
		st, err := scrapeStatz(client, u)
		if err != nil {
			st = nil // a dead backend records as a hole, not a run failure
		}
		res.Backends = append(res.Backends, st)
	}
	return res, nil
}

// countStatus classifies one response status into the result counters.
func (r *LoadgenResult) countStatus(status int, err error) {
	atomic.AddInt64(&r.Sent, 1)
	switch {
	case err != nil && status == 0:
		atomic.AddInt64(&r.Errors5xx, 1) // transport failure counts against the server
	case status == http.StatusOK:
		atomic.AddInt64(&r.OK, 1)
	case status == http.StatusTooManyRequests:
		atomic.AddInt64(&r.Rejected429, 1)
	case status == http.StatusGatewayTimeout:
		atomic.AddInt64(&r.Deadline504, 1)
	case status >= 500:
		atomic.AddInt64(&r.Errors5xx, 1)
	default:
		atomic.AddInt64(&r.Errors4xx, 1)
	}
}

// postCompile sends one compile request and returns the HTTP status and
// the request's wall time. status 0 means the transport failed.
func postCompile(client *http.Client, cfg LoadgenConfig, mir string) (int, int64, error) {
	req := CompileRequest{
		MIR:       mir,
		Method:    cfg.Method,
		Simulate:  cfg.Simulate,
		TimeoutMS: cfg.TimeoutMS,
	}
	body, err := json.Marshal(req)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	resp, err := client.Post(cfg.URL+"/v1/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, time.Since(start).Nanoseconds(), err
	}
	// Drain so the connection is reused; the loadgen only needs the status.
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, time.Since(start).Nanoseconds(), nil
}

// scrapeStatz fetches and decodes the daemon's /statz document.
func scrapeStatz(client *http.Client, baseURL string) (*Statz, error) {
	resp, err := client.Get(baseURL + "/statz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("statz: HTTP %d", resp.StatusCode)
	}
	st := &Statz{}
	if err := json.NewDecoder(resp.Body).Decode(st); err != nil {
		return nil, err
	}
	return st, nil
}

func summarize(ns []int64) LatencySummary {
	if len(ns) == 0 {
		return LatencySummary{}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	at := func(p float64) float64 {
		i := int(p * float64(len(ns)-1))
		return float64(ns[i]) / 1e6
	}
	var sum int64
	for _, v := range ns {
		sum += v
	}
	return LatencySummary{
		P50MS:  at(0.50),
		P90MS:  at(0.90),
		P99MS:  at(0.99),
		MaxMS:  float64(ns[len(ns)-1]) / 1e6,
		MeanMS: float64(sum) / float64(len(ns)) / 1e6,
	}
}
