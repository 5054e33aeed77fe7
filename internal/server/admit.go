package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"chronos"
	"chronos/internal/hotjson"
	"chronos/internal/obs"
	"chronos/internal/optimize"
	"chronos/internal/plankey"
	"chronos/internal/tenant"
)

// Structured rejection reasons reported by POST /v1/admit and used as the
// reason label on chronosd_tenant_rejects_total.
const (
	// ReasonBudgetExhausted: the tenant's ledger cannot pay for any
	// feasible plan right now. With a refilling pool the job may be
	// admittable later.
	ReasonBudgetExhausted = "budget_exhausted"
	// ReasonInfeasible: no attempt count reaches the tenant's required
	// PoCD — the deadline cannot be met at RMin no matter the budget.
	ReasonInfeasible = "infeasible_deadline"
)

// admitDebitRetries bounds the solve-then-debit loop. The solve runs
// against a snapshot of the pool's level; when a concurrent admit wins the
// race for that remainder the debit fails and the job is re-planned against
// the shrunken ledger instead of over-committing it.
const admitDebitRetries = 3

// admitRequest asks for an online admission decision (can this tenant
// afford a feasible speculation plan for the arriving job?); admitResponse
// answers it. Both are served by the reflection-free internal/hotjson codec,
// so the wire structs live there and the handlers alias them.
type (
	admitRequest  = hotjson.AdmitRequest
	admitResponse = hotjson.AdmitResponse
)

// handleAdmit serves POST /v1/admit: accept/reject + plan in one round
// trip, the paper's online setting. The optimizer runs against the tenant's
// remaining budget; an accepted plan is debited atomically, a rejection
// carries a structured reason.
func (s *Server) handleAdmit(w http.ResponseWriter, r *http.Request) {
	hb := getHotBuf()
	defer putHotBuf(hb)
	var ok bool
	if hb.in, ok = s.readBody(w, r, hb.in); !ok {
		return
	}
	req := &hb.admitReq
	if err := hotjson.DecodeAdmitRequest(hb.in, req, s); err != nil {
		s.apiError(w, r, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	tr := obs.FromContext(r.Context())
	tr.SetTenant(req.Tenant)
	pool, ok := s.lookupPool(w, r, req.Tenant)
	if !ok {
		return
	}
	strat, best, ok := keyStrategy(req.Strategy)
	if !ok {
		s.apiError(w, r, http.StatusBadRequest, "unknown strategy %q", req.Strategy)
		return
	}
	econ := tenantEcon(req.Econ, pool)
	// Sharded serving: admission decisions for a non-owned plan key run on
	// the owning replica (its cache holds the unconstrained optimum and its
	// ledger takes the debit — replicas run identical tenant configs, so
	// each holds one shard of a tenant's fleet-wide budget). The forwarded
	// request carries the filled econ so the owner keys its cache
	// identically.
	req.Econ = econ
	qStart := time.Now()
	hb.key = plankey.AppendKey(hb.key[:0], cacheStrategyName(strat, best), req.Job, econ)
	tr.Observe(obs.StageQuantize, time.Since(qStart))
	if s.forwardToOwner(w, r, "/v1/admit", hb.key, req) {
		return
	}

	// The debit target: the raw pool in the legacy per-replica mode, the
	// escrow-aware budget (authoritative pool on the tenant owner, local
	// lease elsewhere) when fleet-exact accounting is on.
	bud := s.tenantBudget(r.Context(), req.Tenant, pool)
	for attempt := 0; attempt < admitDebitRetries; attempt++ {
		remaining := bud.Remaining()
		plan, err := s.planWithinBudget(tr, hb.key, strat, best, req.Job, econ, remaining)
		if err != nil {
			if reason := rejectReason(err); reason != "" {
				s.rejectAdmit(w, r, hb, reason, remaining)
				return
			}
			s.apiError(w, r, planStatus(err), "%v", err)
			return
		}
		dStart := time.Now()
		ok, rem := bud.TryDebit(plan.MachineTime)
		tr.Observe(obs.StageDebit, time.Since(dStart))
		if ok {
			s.metrics.plans.inc(plan.Strategy.String())
			s.metrics.tenantAdmit(req.Tenant, plan.Strategy.String())
			hb.plan = plan
			hb.admitResp = admitResponse{
				Admitted: true, Tenant: req.Tenant, Plan: &hb.plan, BudgetRemaining: rem,
			}
			s.writeAdmitResponse(w, r, hb)
			return
		}
		// A concurrent admit drained the snapshot we planned against;
		// re-plan against the new level.
	}
	s.rejectAdmit(w, r, hb, ReasonBudgetExhausted, bud.Remaining())
}

// rejectAdmit answers one /v1/admit rejection: counted per tenant and
// reason, 200 with the structured decision payload.
func (s *Server) rejectAdmit(w http.ResponseWriter, r *http.Request, hb *hotBuf, reason string, remaining float64) {
	s.metrics.tenantReject(hb.admitReq.Tenant, reason)
	hb.admitResp = admitResponse{
		Tenant: hb.admitReq.Tenant, Reason: reason, BudgetRemaining: remaining,
	}
	s.writeAdmitResponse(w, r, hb)
}

// cachedPlan returns the unconstrained optimal plan for one job of a
// /v1/plan/batch fan-out, building the job's plan key into a stack buffer.
// tr may be nil for untraced callers.
func (s *Server) cachedPlan(tr *obs.Trace, strat chronos.Strategy, best bool, job chronos.JobParams, econ chronos.Econ) (plan chronos.Plan, cached bool, err error) {
	var buf [128]byte
	qStart := time.Now()
	key := plankey.AppendKey(buf[:0], cacheStrategyName(strat, best), job, econ)
	tr.Observe(obs.StageQuantize, time.Since(qStart))
	return s.cachedPlanKeyed(tr, key, strat, best, job, econ)
}

// cachedPlanKeyed consults and populates the sharded plan cache under a
// plan key the caller already computed (the sharded handlers need it for the
// ownership lookup first). Every planning path — /v1/plan, the batch
// fan-outs, and admission control — goes through here, so cache policy (and
// its stage instrumentation) lives in one place. The key usually still lives
// in a pooled request buffer: a cache hit probes the shard map without
// materializing the key string, so the hot path allocates nothing.
func (s *Server) cachedPlanKeyed(tr *obs.Trace, key []byte, strat chronos.Strategy, best bool, job chronos.JobParams, econ chronos.Econ) (plan chronos.Plan, cached bool, err error) {
	cStart := time.Now()
	plan, hit := s.cache.get(key)
	tr.Observe(obs.StageCache, time.Since(cStart))
	if hit {
		return plan, true, nil
	}
	return s.solveAndCache(tr, string(key), strat, best, job, econ)
}

// solveAndCache runs the unconstrained solve on a cache miss and populates
// the cache. Concurrent misses for the same key are collapsed through the
// singleflight table: one leader solves while the others park on its done
// channel and share the outcome (reported as cached=false — a waiter's plan
// was not served from the LRU, it piggybacked on a live solve).
func (s *Server) solveAndCache(tr *obs.Trace, key string, strat chronos.Strategy, best bool, job chronos.JobParams, econ chronos.Econ) (plan chronos.Plan, cached bool, err error) {
	call, leader := s.flight.join(key)
	if !leader {
		// Counted on entry, not exit, so the waiter population is observable
		// while the leader's solve is still in flight.
		s.metrics.flightWaiters.Inc()
		wStart := time.Now()
		<-call.done
		tr.Observe(obs.StageFlightWait, time.Since(wStart))
		return call.plan, false, call.err
	}
	s.metrics.flightLeaders.Inc()
	if s.solveHook != nil {
		s.solveHook(key)
	}
	sStart := time.Now()
	if best {
		plan, err = chronos.OptimizeBest(job, econ)
	} else {
		plan, err = chronos.Optimize(strat, job, econ)
	}
	tr.Observe(obs.StageSolve, time.Since(sStart))
	if err != nil {
		plan = chronos.Plan{}
	} else {
		// Cache before leaving the flight table so later misses for this key
		// hit the LRU instead of starting a fresh solve, then enqueue the
		// entry's async push to its ring successors (no-op unless this
		// replica owns the key and replication is on).
		s.cache.put(key, plan)
		s.replicateHot(key, plan)
	}
	s.flight.complete(key, call, plan, err)
	return plan, false, err
}

// planWithinBudget returns the best plan whose expected machine time fits
// budget. The unconstrained optimum is looked up in (and populates) the
// plan cache under the caller's precomputed key — squeezed plans depend on
// the transient ledger level and are never cached. What is cached, attached
// to the same entry, is the cell's precomputed feasibility frontier
// (chronos.BudgetFrontier): the first budget-squeezed admit in a cell pays
// the bisection and window scan once, and every later squeeze in the warm
// cell answers from the table with no model evaluations (and, on the admit
// path, no allocation).
func (s *Server) planWithinBudget(tr *obs.Trace, key []byte, strat chronos.Strategy, best bool, job chronos.JobParams, econ chronos.Econ, budget float64) (chronos.Plan, error) {
	plan, _, err := s.cachedPlanKeyed(tr, key, strat, best, job, econ)
	if err != nil {
		return chronos.Plan{}, err
	}
	if plan.MachineTime <= budget {
		return plan, nil
	}
	sStart := time.Now()
	defer func() { tr.Observe(obs.StageSolve, time.Since(sStart)) }()
	if bf := s.cache.frontier(key); bf != nil {
		return bf.PlanWithinBudget(budget)
	}
	var bf *chronos.BudgetFrontier
	var ferr error
	if best {
		bf, ferr = chronos.NewBudgetFrontierBest(job, econ)
	} else {
		bf, ferr = chronos.NewBudgetFrontier(strat, job, econ)
	}
	if ferr != nil {
		// Unreachable after a successful unconstrained solve for the same
		// cell (construction fails only on budget-independent grounds), but
		// fall back to the direct capped solve so behavior is identical even
		// for, say, a corrupted persisted cache entry.
		if best {
			return chronos.OptimizeBestWithinBudget(job, econ, budget)
		}
		return chronos.OptimizeWithinBudget(strat, job, econ, budget)
	}
	s.cache.setFrontier(key, bf)
	return bf.PlanWithinBudget(budget)
}

// rejectBudget answers a tenant-routed /v1/plan or /v1/plan/batch whose
// ledger cannot pay: 429 with the structured reason (carried both as the
// envelope code and the legacy reason field), counted per tenant.
// (/v1/admit reports the same condition in its own 200 decision payload.)
func (s *Server) rejectBudget(w http.ResponseWriter, r *http.Request, tenantName, format string, args ...any) {
	s.metrics.tenantReject(tenantName, ReasonBudgetExhausted)
	resp := errorResponse{
		Error:  fmt.Sprintf(format, args...),
		Code:   codeBudgetExhausted,
		Reason: ReasonBudgetExhausted,
	}
	if tr := obs.FromContext(r.Context()); tr != nil {
		resp.TraceID = tr.ID
	}
	s.writeJSON(w, r, http.StatusTooManyRequests, resp)
}

// rejectReason maps optimization failures onto the admission-control
// rejection vocabulary; "" marks errors that are the request's fault
// (reported as HTTP errors instead).
func rejectReason(err error) string {
	switch {
	case errors.Is(err, optimize.ErrBudgetTooSmall):
		return ReasonBudgetExhausted
	case errors.Is(err, optimize.ErrInfeasible):
		return ReasonInfeasible
	}
	return ""
}

// lookupPool resolves a tenant name against the live registry, writing the
// HTTP error on failure.
func (s *Server) lookupPool(w http.ResponseWriter, r *http.Request, name string) (*tenant.Pool, bool) {
	if name == "" {
		s.apiError(w, r, http.StatusBadRequest, "tenant is required")
		return nil, false
	}
	reg := s.tenants.Load()
	if reg.Len() == 0 {
		s.apiError(w, r, http.StatusNotFound, "no tenant pools configured")
		return nil, false
	}
	pool := reg.Get(name)
	if pool == nil {
		s.apiError(w, r, http.StatusNotFound, "unknown tenant %q", name)
		return nil, false
	}
	return pool, true
}

// tenantBudget picks the debit interface for one tenant-routed request: the
// raw pool when escrow accounting is off (the legacy per-replica
// approximation), the escrow-aware budget when it is on.
func (s *Server) tenantBudget(ctx context.Context, name string, pool *tenant.Pool) budgeter {
	if s.escrow == nil {
		return pool
	}
	return s.escrow.budgetFor(ctx, name, pool)
}

// tenantEcon fills zero economic fields from the pool's defaults.
func tenantEcon(e chronos.Econ, pool *tenant.Pool) chronos.Econ {
	l := pool.Limits()
	if e.Theta == 0 {
		e.Theta = l.Theta
	}
	if e.UnitPrice == 0 {
		e.UnitPrice = l.UnitPrice
	}
	if e.RMin == 0 {
		e.RMin = l.RMin
	}
	return e
}
