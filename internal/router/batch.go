package router

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"prescount/internal/server"
)

// proxyBatch regroups a batch per backend and fans the sub-batches out in
// parallel. Identical entries hash identically, so every duplicate of a
// kernel lands in the same sub-batch and the backend's dedup collapses
// them fleet-wide. Failed sub-batches (node death, saturation) re-resolve
// their entries against the surviving ring in bounded retry rounds; entries
// that exhaust the rounds fail individually — the batch itself never 5xxs.
// An entry whose last round was answered 429 fails as saturated, one that
// found no backend as no_backend.
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

	ctx := req.Context()
	results := make([]json.RawMessage, len(batch.Entries))
	deduped := 0
	var mu sync.Mutex // guards results slots written by sub-batch goroutines
	// saturated marks the entries whose latest round was answered 429. A
	// round resets its pending entries before it sends; then only the one
	// sub-batch goroutine that carries an entry writes its mark.
	saturated := make([]bool, len(batch.Entries))

	pending := make([]int, len(batch.Entries))
	for i := range pending {
		pending[i] = i
	}
	for round := 0; round < r.cfg.Retries && len(pending) > 0; round++ {
		if round > 0 {
			r.jitteredBackoff(ctx, round)
			if ctx.Err() != nil {
				break
			}
		}
		// Resolve each pending entry to its current primary backend.
		groups := map[*backend][]int{}
		var unroutable []int
		for _, i := range pending {
			saturated[i] = false
			cands := r.candidates(batch.Entries[i].key)
			if len(cands) == 0 {
				unroutable = append(unroutable, i)
				continue
			}
			groups[cands[0]] = append(groups[cands[0]], i)
		}
		retry := unroutable
		var wg sync.WaitGroup
		var retryMu sync.Mutex
		for b, idxs := range groups {
			wg.Add(1)
			go func(b *backend, idxs []int) {
				defer wg.Done()
				sub := routedBatchRequest{TimeoutMS: batch.TimeoutMS}
				for _, i := range idxs {
					sub.Entries = append(sub.Entries, batch.Entries[i])
				}
				payload, err := json.Marshal(sub)
				if err != nil {
					return // per-entry no_backend error after the rounds
				}
				b.requests.Add(1)
				resp, err := r.send(ctx, b.url+"/v1/compile/batch", "application/json", payload)
				var respBody []byte
				if err == nil {
					respBody, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				if err != nil {
					b.failures.Add(1)
					b.state.Store(stateDown)
					retryMu.Lock()
					retry = append(retry, idxs...)
					retryMu.Unlock()
					r.retryHops.Add(1)
					return
				}
				status := resp.StatusCode
				if status == http.StatusTooManyRequests {
					for _, i := range idxs {
						saturated[i] = true
					}
					b.failures.Add(1)
					retryMu.Lock()
					retry = append(retry, idxs...)
					retryMu.Unlock()
					r.retryHops.Add(1)
					return
				}
				var subResp routedBatchResponse
				if status != http.StatusOK || json.Unmarshal(respBody, &subResp) != nil ||
					len(subResp.Results) != len(idxs) {
					// An authoritative non-OK (or mangled) answer: fail these
					// entries in place with the upstream's story.
					msg := json.RawMessage(fmt.Sprintf(
						`{"error":{"error":"upstream answered HTTP %d","code":"upstream"}}`, status))
					mu.Lock()
					for _, i := range idxs {
						results[i] = msg
					}
					mu.Unlock()
					return
				}
				mu.Lock()
				for j, i := range idxs {
					results[i] = subResp.Results[j]
				}
				deduped += subResp.Deduped
				mu.Unlock()
			}(b, idxs)
		}
		wg.Wait()
		pending = retry
	}
	// Entries that survived every round unserved fail individually.
	noBackend := json.RawMessage(`{"error":{"error":"no healthy backend","code":"no_backend"}}`)
	saturatedErr := json.RawMessage(`{"error":{"error":"every backend tried answered 429; retry later","code":"` + server.CodeSaturated + `"}}`)
	for i, res := range results {
		switch {
		case res != nil:
		case saturated[i]:
			results[i] = saturatedErr
		default:
			results[i] = noBackend
		}
	}
	resp := struct {
		Results []json.RawMessage `json:"results"`
		Deduped int               `json:"deduped"`
	}{Results: results, Deduped: deduped}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
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

// routedBatchResponse is the slice of raw per-entry results a backend
// answered, stitched back into request order by the caller.
type routedBatchResponse struct {
	Results []json.RawMessage `json:"results"`
	Deduped int               `json:"deduped"`
}
