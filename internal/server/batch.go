package server

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"prescount/internal/ir"
)

// POST /v1/compile/batch compiles many independent kernels in one request.
// The batch is the fleet's amortization unit: identical (fingerprint,
// options) entries are compiled once and fanned back to every duplicate,
// and the unique remainder runs as one job each behind a single admission,
// instead of racing through the queue as separate requests.

// BatchRequest is the /v1/compile/batch envelope. Each entry is an
// independent single-function CompileRequest; per-entry TimeoutMS is
// ignored (the batch-level deadline covers every entry).
type BatchRequest struct {
	Entries []CompileRequest `json:"entries"`
	// TimeoutMS bounds the whole batch (capped at the server maximum).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// BatchEntryResult is one entry's outcome, at the entry's request index.
// Exactly one of OK / Error is set.
type BatchEntryResult struct {
	OK *FuncResponse `json:"ok,omitempty"`
	// Error carries the same code vocabulary as the single-compile
	// endpoints; entries fail independently (a parse error in one entry
	// never fails its neighbors).
	Error *errorResponse `json:"error,omitempty"`
}

// BatchResponse is the /v1/compile/batch success body. Results are in
// request order, one per entry.
type BatchResponse struct {
	Results []BatchEntryResult `json:"results"`
	// Deduped counts entries satisfied by another identical entry of the
	// same batch (they share one compile).
	Deduped int   `json:"deduped"`
	WallNS  int64 `json:"wall_ns"`
}

// batchKey identifies one unique compile inside a batch: content
// fingerprint plus everything that can change the response payload.
type batchKey struct {
	fp       ir.Fingerprint
	digest   uint64
	simulate bool
	vliw     bool
	emitMIR  bool
	verify   bool
	validate bool
}

// maxBatchEntries bounds one batch request; bigger batches should be split
// by the client (or the router, which regroups per backend anyway).
const maxBatchEntries = 1024

func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if !s.postOnly(w, r) {
		return
	}
	s.metrics.total.Add(1)
	s.metrics.batchRequests.Add(1)

	req, code, err := decodeBatchRequest(w, r, s.cfg.MaxBody)
	if err != nil {
		s.fail(w, code, err.Error())
		return
	}
	if len(req.Entries) == 0 {
		s.fail(w, CodeBadRequest, "empty batch")
		return
	}
	if len(req.Entries) > maxBatchEntries {
		s.fail(w, CodeBadRequest,
			fmt.Sprintf("%d entries; max %d per batch", len(req.Entries), maxBatchEntries))
		return
	}
	s.metrics.batchEntries.Add(int64(len(req.Entries)))

	// Resolve each entry to its job, collapsing identical compiles onto the
	// first. An entry that fails to parse or validate gets its error now and
	// never occupies a slot.
	results := make([]BatchEntryResult, len(req.Entries))
	names := make([]string, len(req.Entries))
	entryJobs := make([]*job, len(req.Entries))
	byKey := map[batchKey]*job{}
	var jobs []*job
	deduped := 0
	for i := range req.Entries {
		e := &req.Entries[i]
		_, fjobs, errResp := s.prepare(e, true)
		if errResp == nil && len(fjobs) != 1 {
			errResp = &errorResponse{
				Error: fmt.Sprintf("%d functions in batch entry; each entry is one kernel", len(fjobs)),
				Code:  CodeBadRequest,
			}
		}
		if errResp != nil {
			results[i].Error = errResp
			continue
		}
		j := fjobs[0]
		names[i] = j.f.Name
		k := batchKey{
			fp:       j.f.Fingerprint(),
			digest:   j.opts.FullDigest(),
			simulate: e.Simulate,
			vliw:     e.VLIW,
			emitMIR:  e.EmitMIR,
			verify:   e.Verify,
			validate: e.Validate,
		}
		if first, ok := byKey[k]; ok {
			entryJobs[i] = first
			deduped++
			continue
		}
		byKey[k] = j
		entryJobs[i] = j
		jobs = append(jobs, j)
	}
	s.metrics.batchDeduped.Add(int64(deduped))

	// The batch is admitted like any request: a full queue answers 429 for
	// the whole batch, never for one entry. Entries the deadline kills
	// answer CodeDeadline in place; the rest still return their results.
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMS))
	defer cancel()
	if !s.admit(w, ctx) {
		return
	}
	s.runJobs(ctx, jobs)

	ok := 0
	for i, j := range entryJobs {
		switch {
		case j == nil: // failed before compile
		case j.err != nil:
			results[i].Error = j.err
		default:
			fr := j.response(names[i], req.Entries[i].EmitMIR)
			results[i].OK = &fr
			ok++
		}
	}
	if ok > 0 {
		s.metrics.ok.Add(1)
	}
	wall := time.Since(start)
	s.metrics.phase("total").observe(wall)
	s.respond(w, http.StatusOK, BatchResponse{
		Results: results,
		Deduped: deduped,
		WallNS:  wall.Nanoseconds(),
	})
}

// decodeBatchRequest reads the JSON batch envelope under the body cap, as
// strictly as decodeRequest reads a compile envelope.
func decodeBatchRequest(w http.ResponseWriter, r *http.Request, maxBody int64) (*BatchRequest, string, error) {
	req := &BatchRequest{}
	if code, err := decodeJSON(http.MaxBytesReader(w, r.Body, maxBody), r, maxBody, req); err != nil {
		return nil, code, err
	}
	return req, "", nil
}
