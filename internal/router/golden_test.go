package router

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"sync/atomic"
	"testing"
	"time"

	"prescount/internal/ir"
	"prescount/internal/server"
)

// goldenResponsesWant pins the SHA-256 of every answer the serving stack
// gives to a fixed request set: status and body, minus the wall_ns
// timings. Every topology and cache state must give these same bytes. The
// digest was taken before the daemon's compile endpoints were merged onto
// one per-function job path, so that refactor, and any later change to
// admission, scheduling or rendering, must reproduce the old answers byte
// for byte. A deliberate output change updates it from the failure
// message, and says why in its change description.
const goldenResponsesWant = "8e76bfd206deca2b15bbd79d69ecd97120fcd2c462edced7de0ebf02daf32f97"

// goldenOption is one option set every kernel is sent under.
type goldenOption struct {
	name    string
	req     server.CompileRequest // MIR left empty
	inBatch bool
}

var goldenOptions = []goldenOption{
	{"bpc+simulate+emit_mir", server.CompileRequest{Method: "bpc", Simulate: true, EmitMIR: true}, true},
	{"non+banks4+emit_mir", server.CompileRequest{Method: "non", Banks: 4, EmitMIR: true}, true},
	{"brc+simulate+vliw", server.CompileRequest{Method: "brc", Simulate: true, VLIW: true}, true},
	{"portfolio+emit_mir", server.CompileRequest{Method: "portfolio", EmitMIR: true}, false},
}

// goldenRequest is one HTTP request of the pinned set.
type goldenRequest struct {
	label, path, contentType string
	body                     []byte
}

// goldenRequests builds the pinned request set: every corpus kernel on
// /v1/compile in the JSON and the raw-MIR envelope, a module of those
// kernels on /v1/compile/module, and a batch with duplicates, a renamed
// duplicate and a parse error on /v1/compile/batch, each under every
// option set (portfolio not in the batch: batch entries rejected it when
// these digests were taken).
func goldenRequests(t *testing.T) []goldenRequest {
	t.Helper()
	kernels := server.Corpus(2)
	mod := ir.NewModule("golden")
	for i, src := range kernels {
		f, err := ir.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		f.Name = fmt.Sprintf("k%d", len(kernels)-i) // added out of name order
		mod.Add(f)
	}
	moduleMIR := ir.PrintModule(mod)
	renamed := regexp.MustCompile(`^func @[^ ]+`).ReplaceAllString(kernels[0], "func @renamed")
	batchMIR := []string{kernels[0], kernels[1], kernels[0], renamed, "not mir at all", kernels[1]}

	var out []goldenRequest
	jsonReq := func(label, path string, v any) {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, goldenRequest{label, path, "application/json", body})
	}
	for _, o := range goldenOptions {
		for i, k := range kernels {
			req := o.req
			req.MIR = k
			jsonReq(fmt.Sprintf("compile/json/%d/%s", i, o.name), "/v1/compile", req)
			out = append(out, goldenRequest{
				label:       fmt.Sprintf("compile/raw/%d/%s", i, o.name),
				path:        "/v1/compile?" + rawQuery(o.req),
				contentType: "text/plain",
				body:        []byte(k),
			})
		}
		req := o.req
		req.MIR = moduleMIR
		jsonReq("module/"+o.name, "/v1/compile/module", req)
		if o.inBatch {
			var batch server.BatchRequest
			for _, k := range batchMIR {
				e := o.req
				e.MIR = k
				batch.Entries = append(batch.Entries, e)
			}
			jsonReq("batch/"+o.name, "/v1/compile/batch", batch)
		}
	}
	return out
}

// rawQuery renders a request's options as raw-MIR envelope parameters.
func rawQuery(r server.CompileRequest) string {
	q := url.Values{}
	q.Set("method", r.Method)
	if r.Banks != 0 {
		q.Set("banks", fmt.Sprint(r.Banks))
	}
	if r.Simulate {
		q.Set("simulate", "true")
	}
	if r.VLIW {
		q.Set("vliw", "true")
	}
	if r.EmitMIR {
		q.Set("emit_mir", "true")
	}
	return q.Encode()
}

// wallNS matches the only nondeterministic bytes of an answer.
var wallNS = regexp.MustCompile(`,"wall_ns":[0-9]+`)

// goldenNode is one daemon behind a fixed URL whose process can be
// restarted over the same disk directory: the router's ring hashes
// backend URLs, so keeping them fixed keeps every kernel on its node.
type goldenNode struct {
	cfg     server.Config
	srv     *server.Server
	handler atomic.Value // http.Handler
	ts      *httptest.Server
}

func newGoldenNode(t *testing.T) *goldenNode {
	n := &goldenNode{cfg: server.Config{MaxInFlight: 2, DiskCacheDir: t.TempDir()}}
	n.restart(t)
	n.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		n.ts.Close()
		n.srv.Close()
	})
	return n
}

// restart closes the daemon (flushing its disk write-behind) and starts a
// fresh one, with an empty memory cache, on the same directory.
func (n *goldenNode) restart(t *testing.T) {
	if n.srv != nil {
		n.srv.Close()
	}
	s, err := server.New(n.cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.srv = s
	n.handler.Store(s.Handler())
}

// TestGoldenResponses sends the pinned request set directly to one daemon
// and through a router over three, each from a cold cache, again from
// memory, and again after restarting every daemon on its disk directory,
// and compares the digest of every pass with the pinned one.
func TestGoldenResponses(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and simulates the golden request set six times")
	}
	reqs := goldenRequests(t)
	for _, topo := range []struct {
		name  string
		nodes int
	}{{"direct", 1}, {"routed", 3}} {
		topo := topo
		t.Run(topo.name, func(t *testing.T) {
			t.Parallel()
			var nodes []*goldenNode
			var urls []string
			for i := 0; i < topo.nodes; i++ {
				n := newGoldenNode(t)
				nodes = append(nodes, n)
				urls = append(urls, n.ts.URL)
			}
			base := urls[0]
			if topo.nodes > 1 {
				r, err := New(Config{Backends: urls, HealthEvery: time.Hour, RetryBase: time.Millisecond})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(r.Stop)
				rts := httptest.NewServer(r.Handler())
				t.Cleanup(rts.Close)
				base = rts.URL
			}
			for _, pass := range []string{"cold", "memory", "disk"} {
				if pass == "disk" {
					for _, n := range nodes {
						n.restart(t)
					}
				}
				if got := goldenResponsesDigest(t, base, reqs); got != goldenResponsesWant {
					t.Errorf("%s pass: response digest %s, want %s", pass, got, goldenResponsesWant)
				}
			}
			var diskHits int64
			for _, n := range nodes {
				diskHits += n.srv.Statz().Cache.DiskHits
			}
			if diskHits == 0 {
				t.Error("the disk pass never read the disk cache")
			}
		})
	}
}

// goldenResponsesDigest sends every request in order and hashes each
// answer's status and body with wall_ns removed.
func goldenResponsesDigest(t *testing.T, base string, reqs []goldenRequest) string {
	t.Helper()
	h := sha256.New()
	for _, req := range reqs {
		resp, err := http.Post(base+req.path, req.contentType, bytes.NewReader(req.body))
		if err != nil {
			t.Fatalf("%s: %v", req.label, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", req.label, err)
		}
		fmt.Fprintf(h, "%s %d\n%s", req.label, resp.StatusCode, wallNS.ReplaceAll(body, nil))
	}
	return hex.EncodeToString(h.Sum(nil))
}
