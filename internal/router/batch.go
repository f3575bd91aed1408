package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"prescount/internal/server"
)

// proxyBatch regroups a batch per backend and sends the sub-batches
// through forward in parallel. Identical entries hash identically, so
// every duplicate of a kernel lands in the same sub-batch and the
// backend's dedup collapses them fleet-wide. A sub-batch walks its first
// entry's backends by score the way a compile does; the answer it ends
// with maps onto its entries, which fail individually inside the 200
// envelope — the batch itself never 5xxs. An entry with no healthy
// backend fails as no_backend at once.
func (r *Router) proxyBatch(w http.ResponseWriter, req *http.Request) {
	body, ok := r.readBody(w, req)
	if !ok {
		return
	}
	var batch routedBatchRequest
	if err := json.Unmarshal(body, &batch); err != nil {
		failJSON(w, http.StatusBadRequest, server.CodeBadRequest, "request JSON: "+err.Error())
		return
	}
	if len(batch.Entries) == 0 {
		failJSON(w, http.StatusBadRequest, server.CodeBadRequest, "empty batch")
		return
	}
	r.batchReqs.Add(1)

	// Group each entry under its first healthy backend, the node its
	// compile would reach first.
	results := make([]json.RawMessage, len(batch.Entries))
	groups := map[*backend][]int{}
	for i, e := range batch.Entries {
		cands := r.candidates(e.key)
		if len(cands) == 0 {
			results[i] = entryError("no healthy backend", "no_backend")
			continue
		}
		groups[cands[0]] = append(groups[cands[0]], i)
	}
	// Each sub-batch writes only its own entries' slots of results.
	var deduped atomic.Int64
	var wg sync.WaitGroup
	for _, idxs := range groups {
		wg.Add(1)
		go func(idxs []int) {
			defer wg.Done()
			deduped.Add(int64(r.forwardBatch(req.Context(), batch, idxs, results)))
		}(idxs)
	}
	wg.Wait()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(routedBatchResponse{Results: results, Deduped: int(deduped.Load())})
}

// forwardBatch sends the entries idxs of batch as one sub-batch through
// forward, under the routing key of its first entry, writes each entry's
// result into results and returns the sub-batch's deduped count. No
// answer fails the entries as no_backend, a final 429 as saturated, and
// any other non-200, or a body that is not one result per entry, as
// upstream. A backend that breaks off its answer is demoted, as on a
// compile.
func (r *Router) forwardBatch(ctx context.Context, batch routedBatchRequest, idxs []int, results []json.RawMessage) int {
	fail := func(res json.RawMessage) int {
		for _, i := range idxs {
			results[i] = res
		}
		return 0
	}
	sub := routedBatchRequest{TimeoutMS: batch.TimeoutMS}
	for _, i := range idxs {
		sub.Entries = append(sub.Entries, batch.Entries[i])
	}
	payload, _ := json.Marshal(sub) // raw entries that already decoded: cannot fail
	resp, b := r.forward(ctx, sub.Entries[0].key, "/v1/compile/batch", "application/json", payload)
	if resp == nil {
		return fail(entryError("no healthy backend", "no_backend"))
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		return fail(entryError("every backend tried answered 429; retry later", server.CodeSaturated))
	}
	respBody, err := io.ReadAll(resp.Body)
	if err != nil && ctx.Err() == nil {
		b.failures.Add(1)
		b.state.Store(stateDown)
	}
	var subResp routedBatchResponse
	if err != nil || resp.StatusCode != http.StatusOK ||
		json.Unmarshal(respBody, &subResp) != nil || len(subResp.Results) != len(idxs) {
		return fail(entryError(fmt.Sprintf("upstream answered HTTP %d", resp.StatusCode), "upstream"))
	}
	for j, i := range idxs {
		results[i] = subResp.Results[j]
	}
	return subResp.Deduped
}

// entryError is a batch entry's error result; msg and code hold nothing
// JSON would escape.
func entryError(msg, code string) json.RawMessage {
	return json.RawMessage(`{"error":{"error":"` + msg + `","code":"` + code + `"}}`)
}

// routedBatchRequest mirrors server.BatchRequest but keeps each entry as
// raw JSON beside the routing key of its MIR; unknown future fields pass
// through to the backend untouched.
type routedBatchRequest struct {
	Entries   []routedEntry `json:"entries"`
	TimeoutMS int64         `json:"timeout_ms,omitempty"`
}

// routedEntry captures the routing key of an entry's MIR, the same key a
// compile of that MIR alone gets, and the full raw entry for forwarding.
type routedEntry struct {
	key uint64
	raw json.RawMessage
}

func (e *routedEntry) UnmarshalJSON(data []byte) error {
	var peek struct {
		MIR string `json:"mir"`
	}
	if err := json.Unmarshal(data, &peek); err != nil {
		return err
	}
	e.key = routingKey([]byte(peek.MIR))
	e.raw = append(json.RawMessage(nil), data...)
	return nil
}

func (e routedEntry) MarshalJSON() ([]byte, error) { return e.raw, nil }

// routedBatchResponse is a batch answer with each entry's result kept raw:
// a backend's answer to one sub-batch, and the router's stitched answer in
// request order.
type routedBatchResponse struct {
	Results []json.RawMessage `json:"results"`
	Deduped int               `json:"deduped"`
}
