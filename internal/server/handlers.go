package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"

	"chronos"
	"chronos/api"
	"chronos/internal/hotjson"
	"chronos/internal/optimize"
	"chronos/internal/plankey"
)

// errorCodeForStatus maps an HTTP status onto the envelope's error code.
func errorCodeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return api.CodeBadRequest
	case http.StatusNotFound:
		return api.CodeNotFound
	case http.StatusRequestEntityTooLarge:
		return api.CodePayloadTooLarge
	case http.StatusUnprocessableEntity:
		return api.CodeUnprocessable
	case http.StatusServiceUnavailable:
		return api.CodeUnavailable
	}
	if status >= http.StatusInternalServerError {
		return api.CodeInternal
	}
	return api.CodeBadRequest
}

// --- helpers --------------------------------------------------------------

// apiError emits the unified error envelope, the only place one is built: the
// code follows from the status, the trace ID comes from the routed writer
// (empty for untraced callers).
func (s *Server) apiError(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	resp := api.ErrorResponse{
		Error:   fmt.Sprintf(format, args...),
		Code:    errorCodeForStatus(status),
		TraceID: traceIDOf(w),
	}
	s.writeJSON(w, r, status, resp)
}

// decode reads the whole body (readBody, which answers 413 and read errors)
// and decodes it into v, answering 400 for anything but exactly one JSON
// value of v's shape with no key v does not declare: the encoding/json body
// path of /v1/plan/batch and /v1/replay (/v1/tradeoff reads a query). The
// plan and admit routes decode with hotjson, which applies the same rule and
// gives the same text for an unknown key. The bytes are checked first, so a
// syntax error reads as json.Unmarshal words it.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	hb := getHotBuf()
	defer putHotBuf(hb)
	var ok bool
	if hb.in, ok = s.readBody(w, r, hb.in); !ok {
		return false
	}
	var err error
	if json.Valid(hb.in) {
		dec := json.NewDecoder(bytes.NewReader(hb.in))
		dec.DisallowUnknownFields()
		err = dec.Decode(v)
	} else {
		err = json.Unmarshal(hb.in, v)
	}
	if err != nil {
		s.apiError(w, r, http.StatusBadRequest, "invalid JSON: %v", err)
		return false
	}
	return true
}

// planStatus maps optimization failures to HTTP codes: infeasible problems
// are well-formed but unsatisfiable (422), and everything else is a bad
// request.
func planStatus(err error) int {
	if errors.Is(err, optimize.ErrInfeasible) ||
		errors.Is(err, optimize.ErrBudgetTooSmall) ||
		errors.Is(err, optimize.ErrUnreachablePoCD) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusBadRequest
}

// finitePtr returns &x, or nil when x is not a finite float (JSON has no
// encoding for Inf/NaN).
func finitePtr(x float64) *float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return nil
	}
	return &x
}

// --- handlers -------------------------------------------------------------

// handlePlan serves POST /v1/plan: the per-arrival planning hot path. The
// sharded cache short-circuits repeated requests for bit-identical jobs. It
// spends no tenant budget; that is /v1/admit. The whole path — body read,
// hotjson decode, key build, cache probe, encode, write — runs on one pooled
// hotBuf and allocates nothing on a cache hit, where the plan's wire form is
// copied from its cache slot rather than formatted again.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	hb := getHotBuf()
	defer putHotBuf(hb)
	var ok bool
	if hb.in, ok = s.readBody(w, r, hb.in); !ok {
		return
	}
	req := &hb.planReq
	if err := hotjson.DecodePlanRequest(hb.in, req, s); err != nil {
		s.apiError(w, r, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	tr := traceOf(w)
	strat, best, ok := plankey.ParseStrategy(req.Strategy)
	if !ok {
		s.apiError(w, r, http.StatusBadRequest, "unknown strategy %q", req.Strategy)
		return
	}
	// Sharded serving: when another replica owns this plan key, proxy the
	// request there so the fleet's caches partition the keyspace instead of
	// overlapping.
	c := cell{strat: strat, best: best, job: req.Job, econ: req.Econ}
	c.buildKey(tr, hb.key[:0])
	hb.key = c.key
	if s.forwardToOwner(w, r, "/v1/plan", &c, hb.in) {
		return
	}
	head := append(hb.out[:0], hotjson.PlanResponseHead...)
	plan, out, cached, err := s.cachedPlan(tr, &c, head)
	if err != nil {
		s.apiError(w, r, planStatus(err), "%v", err)
		return
	}
	tr.SetCached(cached)
	s.metrics.plans.inc(plan.Strategy.String())
	if len(out) == len(head) {
		if out, err = hotjson.AppendPlan(out, &plan); err != nil {
			s.encodeFailed(w, r, err)
			return
		}
	}
	out = hotjson.AppendPlanResponseTail(out, cached)
	hb.out = out
	writeHotBody(w, http.StatusOK, out)
}

// handleBatch serves POST /v1/plan/batch: shared-budget allocation across M
// concurrent jobs. Per-job strategy selection (for jobs without a pinned
// strategy) goes through the plan cache; the coupled budget split then walks
// each job's hull of undominated plans (optimize.BatchSolve).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	tr := traceOf(w)
	if len(req.Jobs) == 0 {
		s.apiError(w, r, http.StatusBadRequest, "batch has no jobs")
		return
	}
	if len(req.Jobs) > s.cfg.MaxBatchJobs {
		s.apiError(w, r, http.StatusBadRequest,
			"batch has %d jobs, limit %d", len(req.Jobs), s.cfg.MaxBatchJobs)
		return
	}
	if !(req.Budget > 0) {
		s.apiError(w, r, http.StatusBadRequest, "budget must be positive")
		return
	}

	// Resolve every job's strategy in order; an unpinned one is the best of
	// the three from the plan cache, so a batch's repeated shapes solve once.
	batch := make([]chronos.BatchJob, len(req.Jobs))
	var key []byte
	for i, jr := range req.Jobs {
		strat, best, ok := plankey.ParseStrategy(jr.Strategy)
		if !ok {
			s.apiError(w, r, http.StatusBadRequest, "job %d: unknown strategy %q", i, jr.Strategy)
			return
		}
		if best {
			c := cell{best: true, job: jr.Job, econ: req.Econ}
			c.buildKey(tr, key[:0])
			key = c.key
			plan, _, _, err := s.cachedPlan(tr, &c, nil)
			if err != nil {
				s.apiError(w, r, planStatus(err), "job %d: %v", i, err)
				return
			}
			strat = plan.Strategy
		}
		rmin := jr.RMin
		if rmin == 0 {
			rmin = req.Econ.RMin
		}
		batch[i] = chronos.BatchJob{Strategy: strat, Params: jr.Job, RMin: rmin}
	}

	plans, err := chronos.PlanBatch(batch, req.Budget)
	if err != nil {
		s.apiError(w, r, planStatus(err), "%v", err)
		return
	}
	resp := api.BatchResponse{Plans: make([]api.BatchPlan, len(plans)), Budget: req.Budget}
	for i, p := range plans {
		s.metrics.plans.inc(batch[i].Strategy.String())
		resp.Plans[i] = api.BatchPlan{Strategy: batch[i].Strategy, BatchPlan: p}
		resp.TotalMachineTime += p.MachineTime
	}
	s.writeJSON(w, r, http.StatusOK, resp)
}

// handleTradeoff serves GET /v1/tradeoff: the PoCD/cost frontier for one
// strategy, r = 0..maxR.
func (s *Server) handleTradeoff(w http.ResponseWriter, r *http.Request) {
	q, paramErr := api.ParseTradeoffQuery(r.URL.Query())
	strat, err := chronos.ParseStrategy(q.Strategy)
	if err == nil {
		// An unknown strategy is reported ahead of a malformed parameter.
		err = paramErr
	}
	if err != nil {
		s.apiError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	if q.MaxR < 0 || q.MaxR > maxTradeoffPoints {
		s.apiError(w, r, http.StatusBadRequest,
			"maxR must be in [0, %d]", maxTradeoffPoints)
		return
	}
	curve, err := chronos.TradeoffCurve(strat, q.Job, q.Econ, q.MaxR)
	if err != nil {
		s.apiError(w, r, planStatus(err), "%v", err)
		return
	}
	resp := api.TradeoffResponse{Strategy: strat, Points: make([]api.TradeoffPoint, len(curve))}
	for i, pt := range curve {
		resp.Points[i] = api.TradeoffPoint{
			R:           pt.R,
			PoCD:        pt.PoCD,
			MachineTime: pt.MachineTime,
			Cost:        pt.Cost,
			Utility:     finitePtr(pt.Utility),
		}
	}
	s.writeJSON(w, r, http.StatusOK, resp)
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics serves GET /metrics in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.writePrometheus(w, s.cache, s.tenants.Load(), s.ringSt.Load(), s.ledger)
}
