package router

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"prescount/internal/ir"
	"prescount/internal/server"
	"prescount/internal/workload"
)

// kernelMIRKey pins routingKey(kernelMIR). Placement changes only on
// purpose: a new value moves every kernel of a running fleet once, so a
// change says so in DESIGN.md and docs/API.md.
const kernelMIRKey = 0x67c54201633e947e

func TestRoutingKeyPinned(t *testing.T) {
	if got := routingKey([]byte(kernelMIR)); got != kernelMIRKey {
		t.Fatalf("routingKey(kernelMIR) = %#x, want %#x", got, kernelMIRKey)
	}
}

// escapeAll spells every byte of an ASCII string as a \u escape.
func escapeAll(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		fmt.Fprintf(&b, `\u%04X`, s[i])
	}
	b.WriteByte('"')
	return b.String()
}

// TestRoutingKeyVariants pins what the key ignores: every body below
// routes with the bare kernel.
func TestRoutingKeyVariants(t *testing.T) {
	quoted, err := json.Marshal(kernelMIR)
	if err != nil {
		t.Fatal(err)
	}
	compact, err := json.Marshal(server.CompileRequest{MIR: kernelMIR, Method: "bpc", Banks: 4})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := json.Marshal(server.BatchRequest{Entries: []server.CompileRequest{{MIR: kernelMIR, EmitMIR: true}}})
	if err != nil {
		t.Fatal(err)
	}
	var routed routedBatchRequest
	if err := json.Unmarshal(batch, &routed); err != nil {
		t.Fatal(err)
	}
	renamed := strings.Replace(kernelMIR, "@axpy", "@saxpy", 1)
	var reformatted strings.Builder
	reformatted.WriteString("# axpy, reformatted\n\n")
	for _, l := range strings.Split(kernelMIR, "\n") {
		fmt.Fprintf(&reformatted, "\t %s  \r\n   # a comment line\n\n", strings.TrimSpace(l))
	}
	want := routingKey([]byte(kernelMIR))
	for _, c := range []struct {
		name string
		key  uint64
	}{
		{"renamed function", routingKey([]byte(renamed))},
		{"module", routingKey([]byte("module pair\n\n" + kernelMIR))},
		{"renamed module, renamed function", routingKey([]byte("module other\n" + renamed))},
		{"re-indented and re-commented", routingKey([]byte(reformatted.String()))},
		{"raw envelope", bodyKey([]byte(kernelMIR), "text/plain")},
		{"compact JSON", bodyKey(compact, "application/json")},
		{"spaced JSON", bodyKey([]byte(`{"method": "bpc", "mir": `+string(quoted)+`, "banks": 4}`), "application/json; charset=utf-8")},
		{"escaped JSON", bodyKey([]byte(` {"mir" : `+escapeAll(kernelMIR)+"}\n"), "application/json")},
		{"upper-case JSON key", bodyKey([]byte(`{"MIR":`+string(quoted)+`}`), "application/json")},
		{"batch entry", routed.Entries[0].key},
	} {
		if c.key != want {
			t.Errorf("%s: key %#x, want the bare kernel's %#x", c.name, c.key, want)
		}
	}
	if routingKey([]byte(strings.Replace(kernelMIR, "fadd", "fmul", 1))) == want {
		t.Error("an edited kernel kept the key")
	}
}

// TestRoutingKeyGroupsLikeFingerprints checks that keys group the loadgen
// corpus exactly as the daemon's fingerprints do: the corpus holds
// renamed duplicates, and the key must neither split nor merge them.
func TestRoutingKeyGroupsLikeFingerprints(t *testing.T) {
	byKey := map[uint64]ir.Fingerprint{}
	byFP := map[ir.Fingerprint]uint64{}
	for i, src := range server.Corpus(64) {
		f, err := ir.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		fp, key := f.Fingerprint(), routingKey([]byte(src))
		if k, ok := byFP[fp]; ok && k != key {
			t.Errorf("kernel %d: same fingerprint as an earlier kernel, different key", i)
		}
		if p, ok := byKey[key]; ok && p != fp {
			t.Errorf("kernel %d: same key as an earlier kernel, different fingerprint", i)
		}
		byFP[fp], byKey[key] = key, fp
	}
	if len(byKey) != 34 || len(byFP) != 34 {
		t.Errorf("%d key groups and %d fingerprint groups, want 34 each", len(byKey), len(byFP))
	}
}

// TestRoutingKeySpread places the keys of 1,000 distinct kernels on 3, 4
// and 5 nodes and holds each node within 5 points of 1/n.
func TestRoutingKeySpread(t *testing.T) {
	const kernels = 1000
	keys := make([]uint64, 0, kernels)
	seen := map[uint64]bool{}
	for seed := int64(1); seed <= kernels; seed++ {
		key := routingKey([]byte(ir.Print(workload.RandomSized(seed, 120))))
		if seen[key] {
			t.Fatalf("seed %d: key collides with an earlier kernel's", seed)
		}
		seen[key] = true
		keys = append(keys, key)
	}
	for n := 3; n <= 5; n++ {
		r := newRing(ringURLs(n))
		got := make([]float64, n)
		for _, key := range keys {
			got[r.primary(key)] += 1.0 / kernels
		}
		for b := range got {
			if math.Abs(got[b]-1/float64(n)) > 0.05 {
				t.Errorf("node %d of %d holds %.1f%% of kernel keys", b, n, 100*got[b])
			}
		}
	}
	// The CI fleet smoke replays these 16 kernels round-robin, so a node
	// that is primary for k of them caps the smoke's 3-node speedup near
	// 16/k.
	r := newRing(ciURLs)
	counts := make([]int, len(ciURLs))
	for _, mir := range server.Corpus(16) {
		counts[r.primary(routingKey([]byte(mir)))]++
	}
	if slices.Max(counts) > 7 {
		t.Errorf("the CI fleet corpus places %v kernels per node, want at most 7 on any", counts)
	}
}

// corpusEnvelopes renders the loadgen corpus as JSON compile envelopes.
func corpusEnvelopes(tb testing.TB) (bodies [][]byte, mirs []string) {
	mirs = server.Corpus(64)
	for _, src := range mirs {
		body, err := json.Marshal(server.CompileRequest{MIR: src, Method: "bpc", Banks: 2, EmitMIR: true})
		if err != nil {
			tb.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	return bodies, mirs
}

// TestExtractMIRCorpusFastPath checks that the scan reads every corpus
// envelope, so served kernels never fall back to raw-byte keys.
func TestExtractMIRCorpusFastPath(t *testing.T) {
	bodies, mirs := corpusEnvelopes(t)
	for i, body := range bodies {
		if mir, ok := extractMIR(body); !ok || string(mir) != mirs[i] {
			t.Errorf("envelope %d: scan ok=%v, mir equal=%v", i, ok, string(mir) == mirs[i])
		}
	}
}

// FuzzExtractMIR holds the scan to encoding/json: it never panics, and
// whenever it reads a body, json.Unmarshal into server.CompileRequest
// accepts the body (a type error in another field aside) and decodes the
// same mir.
func FuzzExtractMIR(f *testing.F) {
	bodies, _ := corpusEnvelopes(f)
	for _, body := range bodies {
		f.Add(body)
	}
	for _, body := range []string{
		`{"mir":"a","MIR":"b"}`,
		`{"mir":"a","mIr":null}`,
		`{"mir":"😀"}`,
		`{"mir":"é\n\t\"\\\/","banks":-1.5e+3,"simulate":true}`,
		`{"mir":"x","banks":"four"}`,
		`{"mir":"x"}`,
		`{"mir":"x",}`,
		`{"mir":"x"} {}`,
		`{"regs":[1],"mir":"x"}`,
		"{\"mir\":\"\xff\"}",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		mir, ok := extractMIR(body)
		if !ok {
			return
		}
		var req server.CompileRequest
		err := json.Unmarshal(body, &req)
		var typeErr *json.UnmarshalTypeError
		if err != nil && !errors.As(err, &typeErr) {
			t.Fatalf("scan read %q, which json.Unmarshal rejects: %v", body, err)
		}
		if string(mir) != req.MIR {
			t.Fatalf("scan read mir %q from %q, json.Unmarshal %q", mir, body, req.MIR)
		}
	})
}
