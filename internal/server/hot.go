package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"

	"chronos"
	"chronos/api"
	"chronos/internal/obs"
)

// This file is the zero-allocation serving core for the plan and admit
// routes: pooled request/response buffers, the reflection-free hotjson
// wiring, and the buffered writeJSON the other endpoints and every error
// envelope use. A cached plan, a warm admit or a warm batch of admits
// allocates nothing between the body read and the response write (net/http's
// own per-request machinery aside), which TestPlanHandlerCachedZeroAlloc,
// TestAdmitHandlerCachedZeroAlloc and TestAdmitBatchHandlerCachedZeroAlloc
// pin down.

// hotBuf carries every per-request scratch object the plan and admit
// handlers need: body and response buffers, the plan-key buffer, the wire
// structs, and the jobs an admit decides, so a request borrows one pool
// object instead of allocating each piece. The batch scratch grows on demand
// and keeps its capacity while the object is pooled.
type hotBuf struct {
	in  []byte // request body
	out []byte // encoded response body
	key []byte // plan cache / ring key; a batch's keys end to end

	planReq   api.PlanRequest
	planResp  api.PlanResponse
	admitReq  api.AdmitRequest
	admitResp api.AdmitResponse
	batchReq  api.AdmitBatchRequest // its Jobs' backing array is reused

	// The jobs an admit hands to admitJobs, one for /v1/admit, one per job
	// for /v1/admit/batch; jobs[i].plan backs results[i].Plan. walk is the
	// scratch of the walk that splits a squeezed pool across them.
	jobs    []admitJob
	results []api.AdmitBatchResult
	walk    chronos.FrontierWalk
}

var hotBufPool = sync.Pool{New: func() any {
	return &hotBuf{
		in:  make([]byte, 0, 4096),
		out: make([]byte, 0, 2048),
		key: make([]byte, 0, 128),
	}
}}

func getHotBuf() *hotBuf { return hotBufPool.Get().(*hotBuf) }

// putHotBuf clears the request's strings and pointers (so the pool does not
// pin tenant names or a stale plan across requests) and returns the object,
// reporting whether it did. Scratch grown past the retention caps is
// dropped: one huge body or batch must not turn the pool into a ballast of
// megabyte slabs.
func putHotBuf(hb *hotBuf) (pooled bool) {
	const (
		maxRetain     = 64 << 10 // bytes of body, response or keys
		maxRetainJobs = 256      // jobs of a batch
	)
	if cap(hb.in) > maxRetain || cap(hb.out) > maxRetain || cap(hb.key) > maxRetain ||
		cap(hb.jobs) > maxRetainJobs || cap(hb.batchReq.Jobs) > maxRetainJobs {
		return false
	}
	hb.planReq = api.PlanRequest{}
	hb.planResp = api.PlanResponse{}
	hb.admitReq = api.AdmitRequest{}
	hb.admitResp = api.AdmitResponse{}
	jobs := hb.batchReq.Jobs[:cap(hb.batchReq.Jobs)]
	clear(jobs)
	hb.batchReq = api.AdmitBatchRequest{Jobs: jobs[:0]}
	hb.walk.Reset()
	hotBufPool.Put(hb)
	return true
}

// admitScratch returns n jobs and n results for one admit request, grown
// only when n exceeds what the pooled object already holds. Every element is
// assigned before it is read, so they are not cleared.
func (hb *hotBuf) admitScratch(n int) ([]admitJob, []api.AdmitBatchResult) {
	if cap(hb.jobs) < n {
		hb.jobs = make([]admitJob, n)
		hb.results = make([]api.AdmitBatchResult, n)
	}
	hb.jobs, hb.results = hb.jobs[:n], hb.results[:n]
	return hb.jobs, hb.results
}

// jsonContentType is the shared Content-Type header value for every JSON
// response. Assigned into the header map directly (the key is already in
// canonical form): net/http may serialize headers after the handler returns,
// so only an immutable package-lifetime slice — never a pooled one — is safe
// to share across requests.
var jsonContentType = []string{"application/json"}

// readBody reads the whole request body into buf (reusing its capacity),
// answering 413/400 itself on failure. The loop grows buf with append so a
// pooled buffer keeps its high-water capacity across requests.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, bool) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, true
		}
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				s.apiError(w, r, http.StatusRequestEntityTooLarge,
					"request body exceeds %d bytes", tooBig.Limit)
			} else {
				s.apiError(w, r, http.StatusBadRequest, "reading request body: %v", err)
			}
			return buf, false
		}
	}
}

// writeHotBody commits a pre-encoded JSON response. The body is written
// synchronously into net/http's connection buffer, so the caller may reuse
// it as soon as this returns; Content-Length comes from net/http's own
// small-response buffering.
func writeHotBody(w http.ResponseWriter, code int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// InternString makes *Server a hotjson.Interner: tenant names decode to the
// registry's canonical pool-name strings, so a known tenant's admit request
// allocates no string. Unknown values fall back to the decoder's own copy.
func (s *Server) InternString(b []byte) (string, bool) {
	if p := s.tenants.Load().GetBytes(b); p != nil {
		return p.Name(), true
	}
	return "", false
}

// encodeFailed records a response-encode failure — previously these were
// silently dropped on the floor by writeJSON — and answers a static 500
// envelope. Counted in chronosd_response_encode_failures_total.
func (s *Server) encodeFailed(w http.ResponseWriter, r *http.Request, err error) {
	s.metrics.encodeFailures.Inc()
	traceID := ""
	if tr := obs.FromContext(r.Context()); tr != nil {
		traceID = tr.ID
	}
	s.logOp().Warn("response encode failed",
		"endpoint", r.URL.Path, "trace_id", traceID, "error", err.Error())
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusInternalServerError)
	_, _ = io.WriteString(w, `{"error":"response encoding failed","code":"internal"}`)
}

// encBufPool holds the staging buffers for the reflection-based writeJSON.
// Separate from hotBufPool: error paths call writeJSON while the handler
// still holds its hotBuf.
var encBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON encodes v through encoding/json into a pooled buffer and commits
// it in one write — the cold-endpoint sibling of writeHotBody. Staging the
// encode means a failure surfaces as a counted, logged 500 instead of a
// silently truncated 200, and small responses gain Content-Length.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, code int, v any) {
	buf := encBufPool.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		encBufPool.Put(buf)
	}()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		s.encodeFailed(w, r, err)
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	_, _ = buf.WriteTo(w)
}
