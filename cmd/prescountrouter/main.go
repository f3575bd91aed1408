// Command prescountrouter fronts a fleet of prescountd daemons with a
// consistent-hash router: a hash of each compile's MIR text picks its
// backend, so every resubmission of a kernel lands on the node whose
// memory and disk caches already hold its result. The hash skips function
// names, the module header line, whitespace, blank lines and "#" comment
// lines: renamed, re-indented and re-commented copies route together, as
// do a kernel's JSON and raw envelopes and its batch entries. Other
// spellings the parser reads alike may route apart, so duplicates inside
// a batch may dedup on different nodes and count apart in the summed
// deduped. This hash replaced one over parsed fingerprints; the switch
// moved every kernel to a new node once, where it compiles once more
// (disk records stay on the old node).
//
// Usage:
//
//	prescountrouter -backends URL[,URL...] [flags]
//
//	-addr A          listen address (default :8134)
//	-backends LIST   comma-separated prescountd base URLs (required)
//	-health-every D  backend health-probe period (default 1s)
//	-retries N       max distinct backends tried per compile or sub-batch (default 3)
//	-max-body N      request body cap in bytes (default 8 MiB)
//
// Endpoints mirror prescountd (docs/API.md): POST /v1/compile,
// POST /v1/compile/module, POST /v1/compile/batch — plus the router's own
// GET /healthz (200 while any backend is healthy) and GET /statz
// (per-backend health and traffic counters).
//
// Placement is rendezvous hashing: every backend scores each key from
// its URL alone, and the key goes to the highest score. Shares come out
// even, adding or removing a backend moves only the keys it wins or held,
// and routers over the same backends place alike whatever order lists
// them. URLs are placed after trimming a trailing "/"; a backend listed
// twice that way is an error (exit 1).
//
// Retry policy: connection failures and 429s hop to the
// next-highest-scoring backend with jittered backoff (the k-th hop waits
// about k*10ms plus up to 50%); compile errors and deadlines pass through
// untouched (they are the backend's authoritative answer) and stream back
// as the backend sends them. With every backend saturated the final 429
// passes through; with none healthy the router answers 503 with
// Retry-After. Each per-backend sub-batch of a batch walks its backends
// the same way, and one that ends without a 200 fails its entries inside
// the batch's 200 (saturated, no_backend or upstream).
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"prescount/internal/router"
)

func main() {
	addr := flag.String("addr", ":8134", "listen address")
	backends := flag.String("backends", "", "comma-separated prescountd base URLs (required)")
	healthEvery := flag.Duration("health-every", time.Second, "health-probe period")
	retries := flag.Int("retries", 3, "max distinct backends tried per compile or sub-batch")
	maxBody := flag.Int64("max-body", 8<<20, "request body cap in bytes")
	flag.Parse()

	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "prescountrouter: -backends is required")
		os.Exit(2)
	}

	r, err := router.New(router.Config{
		Backends:    urls,
		HealthEvery: *healthEvery,
		Retries:     *retries,
		MaxBody:     *maxBody,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "prescountrouter:", err)
		os.Exit(1)
	}
	r.CheckNow()
	defer r.Stop()

	fmt.Fprintf(os.Stderr, "prescountrouter: listening on %s, %d backends\n", *addr, len(urls))
	if err := http.ListenAndServe(*addr, r.Handler()); err != nil {
		fmt.Fprintln(os.Stderr, "prescountrouter:", err)
		os.Exit(1)
	}
}
