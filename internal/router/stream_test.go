package router

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prescount/internal/server"
)

// streamFleet puts a router over one fake backend. It returns the
// router, the router's URL and a channel that receives once per finished
// router handler, panicking or not.
func streamFleet(t *testing.T, backend http.HandlerFunc) (*Router, string, chan struct{}) {
	t.Helper()
	bts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/healthz" {
			io.WriteString(w, `{"status":"ok"}`+"\n")
			return
		}
		backend(w, req)
	}))
	t.Cleanup(bts.Close)
	r, err := New(Config{Backends: []string{bts.URL}, HealthEvery: time.Hour, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	done := make(chan struct{}, 1)
	h := r.Handler()
	rts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		defer func() { done <- struct{}{} }()
		h.ServeHTTP(w, req)
	}))
	t.Cleanup(rts.Close)
	return r, rts.URL, done
}

func postKernel(url string) (*http.Response, error) {
	body, _ := json.Marshal(server.CompileRequest{MIR: kernelMIR})
	return http.Post(url+"/v1/compile", "application/json", bytes.NewReader(body))
}

// TestStreamBrokenBackendAborts: a backend that sends a 200 and half its
// body, then closes, must not reach the client as a complete answer. The
// router drops the client connection and demotes the backend.
func TestStreamBrokenBackendAborts(t *testing.T) {
	const size = 256 << 10
	r, url, done := streamFleet(t, func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(size))
		w.Write(bytes.Repeat([]byte{' '}, size/2))
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	})
	resp, err := postKernel(url)
	if err == nil {
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("status %d, want the backend's 200", resp.StatusCode)
		}
	}
	if err == nil {
		t.Fatal("a half-sent answer reached the client as complete")
	}
	<-done
	if b := r.Statz().Backends[0]; b.State != "down" || b.Failures != 1 {
		t.Errorf("backend %s with %d failures, want down with 1", b.State, b.Failures)
	}
}

// TestStreamClientHangupKeepsBackend: a client that closes mid-body ends
// the stream, and the backend, which did nothing wrong, stays healthy. The
// router learns of the hang-up from a failed write to the client when the
// backend keeps sending, and from a cancelled read when it stalls.
func TestStreamClientHangupKeepsBackend(t *testing.T) {
	chunk := bytes.Repeat([]byte{' '}, 64<<10)
	for _, tc := range []struct {
		name   string
		chunks int
	}{{"sending", 2048}, {"stalled", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			r, url, done := streamFleet(t, func(w http.ResponseWriter, req *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				for i := 0; i < tc.chunks; i++ {
					if _, err := w.Write(chunk); err != nil {
						return
					}
					w.(http.Flusher).Flush()
				}
				<-req.Context().Done()
			})
			resp, err := postKernel(url)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(resp.Body, make([]byte, len(chunk))); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("the router kept streaming to a client that hung up")
			}
			if b := r.Statz().Backends[0]; b.State != "healthy" || b.Failures != 0 {
				t.Errorf("backend %s with %d failures after a client hang-up, want healthy with 0", b.State, b.Failures)
			}
		})
	}
}

// TestClientGiveUpKeepsBackend: a client that times out before its
// backend answers ends the request, and the backend, which did nothing
// wrong, stays healthy, on a compile and on a batch.
func TestClientGiveUpKeepsBackend(t *testing.T) {
	compile, _ := json.Marshal(server.CompileRequest{MIR: kernelMIR})
	batch, _ := json.Marshal(server.BatchRequest{Entries: []server.CompileRequest{{MIR: kernelMIR}}})
	for _, tc := range []struct {
		name, path string
		body       []byte
	}{{"compile", "/v1/compile", compile}, {"batch", "/v1/compile/batch", batch}} {
		t.Run(tc.name, func(t *testing.T) {
			r, url, done := streamFleet(t, func(w http.ResponseWriter, req *http.Request) {
				select {
				case <-time.After(500 * time.Millisecond):
					w.Header().Set("Content-Type", "application/json")
					io.WriteString(w, `{}`)
				case <-req.Context().Done():
				}
			})
			client := &http.Client{Timeout: 50 * time.Millisecond}
			resp, err := client.Post(url+tc.path, "application/json", bytes.NewReader(tc.body))
			if err == nil {
				resp.Body.Close()
				t.Fatalf("status %d before the client's timeout, want the client to give up", resp.StatusCode)
			}
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("the router kept forwarding for a client that gave up")
			}
			if b := r.Statz().Backends[0]; b.State != "healthy" || b.Failures != 0 {
				t.Errorf("backend %s with %d failures after the client gave up, want healthy with 0", b.State, b.Failures)
			}
		})
	}
}

// TestRouterReusesBackendConns: traffic from 16 concurrent clients through
// the router to one daemon keeps its backend connections. None closes
// while the traffic runs, and no more open than the clients can use.
// net/http dials for every request that finds no idle connection, even
// while an earlier dial is still open, so a cold burst can open a few more
// than one per client: the bound on opened connections has that slack, and
// the closed count, which is exact, is what catches churn.
func TestRouterReusesBackendConns(t *testing.T) {
	const clients, perClient = 16, 8
	s, err := server.New(server.Config{MaxInFlight: 2, MaxQueue: clients})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	var opened, closed atomic.Int64
	bts := httptest.NewUnstartedServer(s.Handler())
	bts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			opened.Add(1)
		case http.StateClosed:
			closed.Add(1)
		}
	}
	bts.Start()
	t.Cleanup(bts.Close)
	r, err := New(Config{Backends: []string{bts.URL}, HealthEvery: time.Hour, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	rts := httptest.NewServer(r.Handler())
	t.Cleanup(rts.Close)

	post := func() {
		resp, err := postKernel(rts.URL)
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("status %d", resp.StatusCode)
		}
	}
	post() // compile once; every later request is a cache hit
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				post()
			}
		}()
	}
	wg.Wait()
	if o, c := opened.Load(), closed.Load(); c > 0 || o > 2*clients {
		t.Errorf("%d requests opened %d backend connections and closed %d, want none closed and at most %d opened",
			clients*perClient+1, o, c, 2*clients)
	}
}
