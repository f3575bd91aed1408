// Command loadgen replays internal/workload kernels against a prescountd
// instance at a target concurrency and reports throughput and latency
// percentiles, emitting the BENCH_serve.json perf-trajectory artifact.
//
// Usage:
//
//	loadgen [flags]
//
//	-url U       target base URL — a daemon or a prescountrouter fronting a
//	             fleet; empty spawns an in-process prescountd on a loopback
//	             port (self-contained benchmark)
//	-backends L  comma-separated backend daemon URLs behind the -url router;
//	             each is scraped for its final per-node statistics (cache and
//	             disk activity the router's statz cannot see)
//	-c N         concurrent clients (default 64)
//	-n N         total requests (default 2048)
//	-kernels N   distinct kernels in the replay corpus (default 16)
//	-method M    allocation method, incl. portfolio (default bpc); an
//	             unknown method exits non-zero before any request is sent
//	-simulate    also execute each allocated kernel server-side
//	-saturate    additionally run a saturation pass against a deliberately
//	             tiny in-process daemon (inflight=2, queue=4) to demonstrate
//	             429-instead-of-collapse (self-spawn mode only)
//	-fleet N     additionally run the distributed pair: N in-process daemons,
//	             each with its own disk cache, behind an in-process
//	             consistent-hash router. The cold pass populates the disk
//	             caches; then every daemon and the router are torn down and
//	             respawned on the same directories, and the warm pass replays
//	             the identical corpus — its compiles must be served from disk
//	             (self-spawn mode only; N < 2 disables)
//	-json FILE   write the trajectory artifact (default BENCH_serve.json;
//	             "" disables)
//
// The artifact records, per run: request counts by outcome, throughput,
// p50/p90/p99 latency, gauge highwater marks scraped from /statz mid-run,
// and the daemon's final cache statistics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"prescount/internal/core"
	"prescount/internal/router"
	"prescount/internal/server"
)

// runRecord labels one loadgen pass in the artifact.
type runRecord struct {
	Name string `json:"name"`
	*server.LoadgenResult
}

// artifact is the BENCH_serve.json schema.
type artifact struct {
	Schema string      `json:"schema"`
	Runs   []runRecord `json:"runs"`
}

func main() {
	url := flag.String("url", "", "target base URL, daemon or router (empty = spawn in-process)")
	backends := flag.String("backends", "", "comma-separated backend daemon URLs behind the -url router, scraped for per-node statz")
	c := flag.Int("c", 64, "concurrent clients")
	n := flag.Int("n", 2048, "total requests")
	kernels := flag.Int("kernels", 16, "distinct kernels in the corpus")
	method := flag.String("method", "bpc", "allocation method: non | bcr | brc | bpc | binpack | coloring | portfolio")
	simulate := flag.Bool("simulate", false, "execute allocated kernels server-side")
	saturate := flag.Bool("saturate", false, "also run the tiny-daemon saturation pass")
	fleet := flag.Int("fleet", 0, "also run the fleet cold/warm-restart pair with this many routed daemons (0 disables)")
	jsonOut := flag.String("json", "BENCH_serve.json", "trajectory artifact path (\"\" disables)")
	flag.Parse()
	_, err := core.ParseMethod(*method)
	check(err)

	art := artifact{Schema: "prescount-serve/3"}

	target := *url
	var backendURLs []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			backendURLs = append(backendURLs, u)
		}
	}
	if len(backendURLs) > 0 && target == "" {
		check(fmt.Errorf("-backends requires -url (the router the backends sit behind)"))
	}
	var shutdown func()
	if target == "" {
		target, shutdown = spawn(server.Config{CacheMaxBytes: 256 << 20})
		fmt.Fprintf(os.Stderr, "loadgen: spawned in-process prescountd at %s\n", target)
	}
	res, err := server.RunLoadgen(server.LoadgenConfig{
		URL:         target,
		URLs:        backendURLs,
		Concurrency: *c,
		Requests:    *n,
		Kernels:     *kernels,
		Method:      *method,
		Simulate:    *simulate,
		RetryOn429:  true,
	})
	check(err)
	if shutdown != nil {
		shutdown()
	}
	report("sustained", res)
	art.Runs = append(art.Runs, runRecord{Name: "sustained", LoadgenResult: res})

	if *saturate {
		if *url != "" {
			check(fmt.Errorf("-saturate requires self-spawn mode (omit -url)"))
		}
		// A deliberately tiny daemon with a tiny cache: the point is 429s
		// and cache eviction instead of unbounded queueing and growth. One
		// compile slot, a two-deep queue, and 2000-instruction kernels —
		// with the zero-allocation compile path a small cold compile
		// finishes inside a single scheduler quantum, so only long compiles
		// reliably overlap the fleet's arrivals and overrun admission
		// control on a single-CPU runner.
		target, shutdown := spawn(server.Config{
			MaxInFlight:   1,
			MaxQueue:      2,
			CacheMaxBytes: 64 << 10,
		})
		sres, err := server.RunLoadgen(server.LoadgenConfig{
			URL:          target,
			Concurrency:  *c,
			Requests:     *n / 4,
			Kernels:      *kernels,
			KernelInstrs: 2000,
			Method:       *method,
			RetryOn429:   false, // count the 429s, don't wait them out
		})
		shutdown()
		check(err)
		report("saturation", sres)
		art.Runs = append(art.Runs, runRecord{Name: "saturation", LoadgenResult: sres})
	}

	if *fleet > 1 {
		if *url != "" {
			check(fmt.Errorf("-fleet requires self-spawn mode (omit -url)"))
		}
		if runtime.NumCPU() < *fleet {
			fmt.Fprintf(os.Stderr, "loadgen: warning: %d daemons on %d CPUs — fleet throughput scaling will not show; disk warm-restart numbers remain valid\n",
				*fleet, runtime.NumCPU())
		}
		dir, err := os.MkdirTemp("", "loadgen-fleet-")
		check(err)
		defer os.RemoveAll(dir)
		// Cold pass populates each node's disk cache; the warm pass respawns
		// the whole fleet on the same directories and replays the identical
		// corpus — every compile should come off disk, not the allocator.
		// Ports are pinned across the respawn: placement hashes backend URLs,
		// so stable addresses (a given in production) are what keep each
		// kernel routed to the node whose disk already holds it.
		var ports []int
		for _, name := range []string{"fleet-cold", "fleet-warm"} {
			target, urls, shutdown := spawnFleet(*fleet, dir, &ports)
			fres, err := server.RunLoadgen(server.LoadgenConfig{
				URL:         target,
				URLs:        urls,
				Concurrency: *c,
				Requests:    *n,
				Kernels:     *kernels,
				Method:      *method,
				RetryOn429:  true,
			})
			shutdown() // flushes each node's write-behind queue
			check(err)
			report(name, fres)
			art.Runs = append(art.Runs, runRecord{Name: name, LoadgenResult: fres})
		}
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(art, "", "  ")
		check(err)
		check(os.WriteFile(*jsonOut, data, 0o644))
		fmt.Fprintf(os.Stderr, "loadgen: wrote %s\n", *jsonOut)
	}
}

// fleetBasePort is node 0's listen port; node i listens on
// fleetBasePort+i, the CI fleet smoke's backend ports.
const fleetBasePort = 7711

// spawnFleet starts n in-process daemons — node i's disk cache under
// dir/node<i>, stable across respawns — and a consistent-hash router over
// them. Placement hashes backend URLs, so the first call binds the fixed
// ports fleetBasePort+i: every run then places the corpus alike. A port
// that is taken falls back to an ephemeral one, named on stderr. *ports
// records the ports of the first call and is replayed on respawn, so
// backend URLs survive the restart. It returns the router URL (the load
// target), the backend URLs (the statz scrape set) and a shutdown that
// closes everything, flushing each node's disk write-behind queue.
func spawnFleet(n int, dir string, ports *[]int) (target string, urls []string, shutdown func()) {
	var downs []func()
	for i := 0; i < n; i++ {
		srv, err := server.New(server.Config{
			CacheMaxBytes: 256 << 20,
			DiskCacheDir:  filepath.Join(dir, fmt.Sprintf("node%d", i)),
		})
		check(err)
		port := fleetBasePort + i
		if i < len(*ports) {
			port = (*ports)[i]
		}
		l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
		if err != nil && i >= len(*ports) {
			l, err = net.Listen("tcp", "127.0.0.1:0")
			if err == nil {
				fmt.Fprintf(os.Stderr, "loadgen: port %d taken; fleet node %d listens on ephemeral port %d, so placement differs from other runs\n",
					port, i, l.Addr().(*net.TCPAddr).Port)
			}
		}
		check(err)
		if i >= len(*ports) {
			*ports = append(*ports, l.Addr().(*net.TCPAddr).Port)
		}
		ts := httptest.NewUnstartedServer(srv.Handler())
		ts.Listener.Close()
		ts.Listener = l
		ts.Start()
		urls = append(urls, ts.URL)
		downs = append(downs, func() { ts.Close(); srv.Close() })
	}
	r, err := router.New(router.Config{Backends: urls})
	check(err)
	rts := httptest.NewServer(r.Handler())
	return rts.URL, urls, func() {
		rts.Close()
		r.Stop()
		for _, down := range downs {
			down()
		}
	}
}

// spawn starts an in-process daemon on a loopback listener and returns its
// base URL plus a shutdown function.
func spawn(cfg server.Config) (string, func()) {
	srv, err := server.New(cfg)
	check(err)
	ts := httptest.NewServer(srv.Handler())
	return ts.URL, func() {
		ts.Close()
		srv.Close()
	}
}

func report(name string, r *server.LoadgenResult) {
	fmt.Printf("%s: %d requests in %.2fs (%d clients): %d ok, %d retried-429, %d rejected-429, %d 504, %d 4xx, %d 5xx\n",
		name, r.Sent, r.DurationS, r.Config.Concurrency, r.OK, r.Retries, r.Rejected429, r.Deadline504, r.Errors4xx, r.Errors5xx)
	fmt.Printf("  throughput %.1f req/s; latency p50=%.2fms p90=%.2fms p99=%.2fms max=%.2fms\n",
		r.ThroughputRPS, r.Latency.P50MS, r.Latency.P90MS, r.Latency.P99MS, r.Latency.MaxMS)
	if r.Statz != nil {
		fmt.Printf("  server: cache full=%.3f prefix=%.3f alloc=%.3f bytes=%d evictions=%d; max inflight seen %d, max queued seen %d\n",
			r.Statz.Cache.FullHitRate, r.Statz.Cache.PrefixHitRate, r.Statz.Cache.AllocHitRate,
			r.Statz.Cache.BytesRetained, r.Statz.Cache.Evictions,
			r.MaxInFlightSeen, r.MaxQueuedSeen)
	}
	if len(r.Backends) > 0 {
		hits, misses := r.FleetDiskHits()
		fmt.Printf("  fleet disk: %d hits, %d misses across %d nodes\n", hits, misses, len(r.Backends))
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}
