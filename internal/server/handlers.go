package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"

	"chronos"
	"chronos/api"
	"chronos/internal/hotjson"
	"chronos/internal/obs"
	"chronos/internal/optimize"
	"chronos/internal/plankey"
	"chronos/internal/tenant"
)

// errorCodeForStatus maps an HTTP status onto the envelope's error code.
func errorCodeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return api.CodeBadRequest
	case http.StatusNotFound:
		return api.CodeNotFound
	case http.StatusConflict:
		return api.CodeNotOwner
	case http.StatusRequestEntityTooLarge:
		return api.CodePayloadTooLarge
	case http.StatusUnprocessableEntity:
		return api.CodeUnprocessable
	case http.StatusTooManyRequests:
		return api.CodeBudgetExhausted
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
// code follows from the status, the trace ID comes from the request context
// (empty for untraced callers).
func (s *Server) apiError(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	resp := api.ErrorResponse{
		Error: fmt.Sprintf(format, args...),
		Code:  errorCodeForStatus(status),
	}
	if resp.Code == api.CodeBudgetExhausted {
		// Tenant-ledger rejections keep the field pre-envelope readers parse.
		resp.Reason = api.ReasonBudgetExhausted
	}
	if tr := obs.FromContext(r.Context()); tr != nil {
		resp.TraceID = tr.ID
	}
	s.writeJSON(w, r, status, resp)
}

// decode reads the whole body (readBody, which answers 413 and read errors)
// and unmarshals it into v, answering 400 for anything but exactly one JSON
// value of v's shape: the one body path of every POST endpoint that is not
// served by the hotjson codec, which applies the same rule.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	hb := getHotBuf()
	defer putHotBuf(hb)
	var ok bool
	if hb.in, ok = s.readBody(w, r, hb.in); !ok {
		return false
	}
	if err := json.Unmarshal(hb.in, v); err != nil {
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
// sharded cache short-circuits repeated requests for quantization-equal
// jobs. Tenant-routed requests additionally debit the plan's machine time
// from the named pool, with 429 when the ledger cannot cover it. The whole
// path — body read, hotjson decode, key build, cache probe, encode, write —
// runs on one pooled hotBuf and allocates nothing on a cache hit.
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
	tr := obs.FromContext(r.Context())
	strat, best, ok := plankey.ParseStrategy(req.Strategy)
	if !ok {
		s.apiError(w, r, http.StatusBadRequest, "unknown strategy %q", req.Strategy)
		return
	}
	var pool *tenant.Pool
	if req.Tenant != "" {
		tr.SetTenant(req.Tenant)
		if pool, ok = s.lookupPool(w, r, req.Tenant); !ok {
			return
		}
		req.Econ = tenantEcon(req.Econ, pool)
	}
	// Sharded serving: when another replica owns this plan key, proxy the
	// request there so the fleet's caches partition the keyspace instead of
	// overlapping. The forwarded request carries the tenant-filled econ, so
	// the owner's cache key matches this routing decision.
	c := cell{strat: strat, best: best, job: req.Job, econ: req.Econ}
	c.quantize(tr, hb.key[:0])
	hb.key = c.key
	if s.forwardToOwner(w, r, "/v1/plan", hb.key, req) {
		return
	}
	plan, cached, err := s.cachedPlan(tr, &c)
	if err != nil {
		s.apiError(w, r, planStatus(err), "%v", err)
		return
	}
	tr.SetCached(cached)
	resp := &hb.planResp
	*resp = api.PlanResponse{Plan: plan, Cached: cached}
	if pool != nil {
		ok, rem := timedDebit(tr, s.tenantBudget(r.Context(), req.Tenant, pool), plan.MachineTime)
		if !ok {
			s.rejectBudget(w, r, req.Tenant,
				"tenant %q cannot cover the plan: needs %g machine-seconds, %g remaining",
				req.Tenant, plan.MachineTime, rem)
			return
		}
		s.metrics.tenantAdmit(req.Tenant, plan.Strategy.String())
		hb.rem = rem
		resp.BudgetRemaining = &hb.rem
	}
	s.metrics.plans.inc(plan.Strategy.String())
	out, err := hotjson.AppendPlanResponse(hb.out[:0], resp)
	if err != nil {
		s.encodeFailed(w, r, err)
		return
	}
	hb.out = out
	writeHotBody(w, http.StatusOK, out)
}

// handleBatch serves POST /v1/plan/batch: shared-budget allocation across M
// concurrent jobs. Per-job strategy selection (for jobs without a pinned
// strategy) goes through the plan cache; the coupled budget split then runs
// through the greedy marginal-gain allocator (optimize.BatchSolve).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	tr := obs.FromContext(r.Context())
	if len(req.Jobs) == 0 {
		s.apiError(w, r, http.StatusBadRequest, "batch has no jobs")
		return
	}
	if len(req.Jobs) > s.cfg.MaxBatchJobs {
		s.apiError(w, r, http.StatusBadRequest,
			"batch has %d jobs, limit %d", len(req.Jobs), s.cfg.MaxBatchJobs)
		return
	}
	var pool *tenant.Pool
	if req.Tenant != "" {
		tr.SetTenant(req.Tenant)
		var ok bool
		if pool, ok = s.lookupPool(w, r, req.Tenant); !ok {
			return
		}
		req.Econ = tenantEcon(req.Econ, pool)
	}
	if pool == nil {
		if !(req.Budget > 0) {
			s.apiError(w, r, http.StatusBadRequest, "budget must be positive")
			return
		}
	} else if req.Budget < 0 || math.IsNaN(req.Budget) {
		// Only an omitted (zero) budget means "use the pool's remainder";
		// a negative or NaN budget is malformed, not a full-pool grant.
		s.apiError(w, r, http.StatusBadRequest,
			"budget must be positive, or omitted for tenant-routed batches")
		return
	}

	// Resolve every job's strategy in order; an unpinned one is the best of
	// the three from the plan cache, so a batch's repeated shapes solve once.
	strategies := make([]chronos.Strategy, len(req.Jobs))
	var key []byte
	for i, jr := range req.Jobs {
		strat, best, ok := plankey.ParseStrategy(jr.Strategy)
		if !ok {
			s.apiError(w, r, http.StatusBadRequest, "job %d: unknown strategy %q", i, jr.Strategy)
			return
		}
		if best {
			c := cell{best: true, job: jr.Job, econ: req.Econ}
			c.quantize(tr, key[:0])
			key = c.key
			plan, _, err := s.cachedPlan(tr, &c)
			if err != nil {
				s.apiError(w, r, planStatus(err), "job %d: %v", i, err)
				return
			}
			strat = plan.Strategy
		}
		strategies[i] = strat
	}

	batch := make([]chronos.BatchJob, len(req.Jobs))
	for i, jr := range req.Jobs {
		rmin := jr.RMin
		if rmin == 0 {
			rmin = req.Econ.RMin
		}
		batch[i] = chronos.BatchJob{Strategy: strategies[i], Params: jr.Job, RMin: rmin}
	}

	// Allocate and, when tenant-routed, settle the allocation's total
	// machine time against the pool: the allocation runs against
	// min(request budget, ledger snapshot).
	var (
		plans  []chronos.BatchPlan
		budget float64
		total  float64
		capped bool // whether the pool, not the request, set the budget
	)
	allocate := func(remaining float64) (float64, error) {
		budget, capped = req.Budget, false
		if budget <= 0 || budget > remaining {
			budget, capped = remaining, true
		}
		var err error
		if plans, err = chronos.PlanBatch(batch, budget); err != nil {
			return 0, err
		}
		total = 0
		for _, p := range plans {
			total += p.MachineTime
		}
		// BatchSolve tolerates 1e-9 of float slop above its budget; clamp
		// the debit to the allocation budget so the ledger's strict
		// comparison cannot deterministically reject an affordable batch.
		return min(total, budget), nil
	}
	var (
		budgetRemaining *float64
		rem             float64
		err             error
	)
	settled := true
	if pool == nil {
		_, err = allocate(math.Inf(1))
	} else {
		rem, settled, err = settle(tr, s.tenantBudget(r.Context(), req.Tenant, pool), allocate)
		budgetRemaining = &rem
	}
	switch {
	case capped && errors.Is(err, optimize.ErrBudgetTooSmall):
		// A too-small budget is only the tenant ledger's fault when the
		// ledger set it; an explicit request budget below the r=0 floor gets
		// the same 422 a tenantless batch would.
		s.rejectBudget(w, r, req.Tenant, "tenant %q cannot cover the batch: %v", req.Tenant, err)
		return
	case err != nil:
		s.apiError(w, r, planStatus(err), "%v", err)
		return
	case !settled:
		s.rejectBudget(w, r, req.Tenant,
			"tenant %q cannot cover the batch: needs %g machine-seconds", req.Tenant, total)
		return
	}

	resp := api.BatchResponse{
		Plans:           make([]api.BatchPlan, len(plans)),
		Budget:          budget,
		BudgetRemaining: budgetRemaining,
	}
	for i, p := range plans {
		s.metrics.plans.inc(strategies[i].String())
		if pool != nil {
			s.metrics.tenantAdmit(req.Tenant, strategies[i].String())
		}
		resp.Plans[i] = api.BatchPlan{Strategy: strategies[i], BatchPlan: p}
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

// handleSimulate serves POST /v1/simulate: a bounded discrete-event what-if
// run, answered as one aggregate report. It runs on the same streaming
// replay core as POST /v1/replay (fold the events, return the final
// summary), and honors the request context: a disconnected client cancels
// the simulation between events instead of leaving it running to
// completion. It holds a replay slot while it runs, so simulations and
// streams together never exceed MaxActiveReplays. Size limits keep one
// request from monopolizing the instance; larger studies belong on
// /v1/replay or in the offline CLIs.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req api.SimulateRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Jobs) == 0 {
		s.apiError(w, r, http.StatusBadRequest, "simulation has no jobs")
		return
	}
	if len(req.Jobs) > s.cfg.MaxSimJobs {
		s.apiError(w, r, http.StatusBadRequest,
			"simulation has %d jobs, limit %d", len(req.Jobs), s.cfg.MaxSimJobs)
		return
	}
	if msg := validateSimBounds(s.cfg, req); msg != "" {
		s.apiError(w, r, http.StatusBadRequest, "%s", msg)
		return
	}
	if !s.takeReplaySlot(w, r) {
		return
	}
	defer s.releaseReplaySlot()
	report, err := chronos.SimulateContext(r.Context(), req.Config, req.Jobs)
	if err != nil {
		if r.Context().Err() != nil {
			// Client is gone; the status code is a formality.
			return
		}
		s.apiError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	s.writeJSON(w, r, http.StatusOK, api.SimulateResponse{
		Jobs:            report.Jobs,
		PoCD:            report.PoCD,
		MeanMachineTime: report.MeanMachineTime,
		MeanCost:        report.MeanCost,
		Utility:         finitePtr(report.Utility),
		RHistogram:      report.RHistogram,
	})
}

// Hard sanity caps on /v1/simulate beyond the configurable task limits.
// They bound the allocations one request can force (cluster nodes) and keep
// every time the run reports finite (deadlines, start-up delays and task
// times); the unbounded studies belong in the offline CLIs.
const (
	simMaxNodes        = 4096
	simMaxSlotsPerNode = 64
	simMaxDeadline     = 1e5 // seconds; also bounds the event horizon, jvmMax and tmin
	simMaxArrival      = 1e6
)

// validateSimBounds returns a rejection message, or "" when the request is
// within serving bounds.
func validateSimBounds(cfg Config, req api.SimulateRequest) string {
	if msg := validateSimConfigBounds(req.Config); msg != "" {
		return msg
	}
	return validateSimJobs(cfg, req.Jobs, simMaxArrival, cfg.MaxSimTotalTasks)
}

// validateSimConfigBounds checks the cluster- and model-shaping knobs shared
// by /v1/simulate and /v1/replay.
func validateSimConfigBounds(c chronos.SimConfig) string {
	if c.Nodes < 0 || c.Nodes > simMaxNodes {
		return fmt.Sprintf("nodes must be in [0, %d]", simMaxNodes)
	}
	if c.SlotsPerNode < 0 || c.SlotsPerNode > simMaxSlotsPerNode {
		return fmt.Sprintf("slotsPerNode must be in [0, %d]", simMaxSlotsPerNode)
	}
	if !(c.JVMMin >= 0 && c.JVMMin <= simMaxDeadline && c.JVMMax >= 0 && c.JVMMax <= simMaxDeadline) {
		return fmt.Sprintf("jvmMin and jvmMax must be in [0, %g]", float64(simMaxDeadline))
	}
	return ""
}

// validateSimJobs checks per-job bounds. maxTotalTasks == 0 means no
// stream-wide task ceiling (the streaming replay path, whose memory is
// bounded by in-flight jobs rather than trace size).
func validateSimJobs(cfg Config, jobs []chronos.SimJob, maxArrival float64, maxTotalTasks int) string {
	total := 0
	for i, j := range jobs {
		if j.Tasks < 1 || j.ReduceTasks < 0 {
			return fmt.Sprintf("job %d: tasks must be >= 1 and reduceTasks >= 0", i)
		}
		tasks := j.Tasks + j.ReduceTasks
		if tasks > cfg.MaxSimTasks {
			return fmt.Sprintf("job %d has %d tasks, limit %d per job", i, tasks, cfg.MaxSimTasks)
		}
		if !(j.Deadline > 0) || j.Deadline > simMaxDeadline {
			return fmt.Sprintf("job %d: deadline must be in (0, %g]", i, float64(simMaxDeadline))
		}
		if !(j.TMin <= simMaxDeadline && j.ReduceTMin <= simMaxDeadline) {
			return fmt.Sprintf("job %d: tmin and reduceTMin must be at most %g", i, float64(simMaxDeadline))
		}
		if j.Arrival < 0 || j.Arrival > maxArrival {
			return fmt.Sprintf("job %d: arrival must be in [0, %g]", i, maxArrival)
		}
		total += tasks
	}
	if maxTotalTasks > 0 && total > maxTotalTasks {
		return fmt.Sprintf("simulation has %d total tasks, limit %d", total, maxTotalTasks)
	}
	return ""
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics serves GET /metrics in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.writePrometheus(w, s.cache, s.tenants.Load(), s.ringSt.Load(), s.escrow)
}
