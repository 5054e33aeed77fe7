package server

import (
	"fmt"
	"net/http"
	"time"

	"chronos"
	"chronos/internal/obs"
	"chronos/internal/plankey"
)

// POST /v1/admit/batch: admission decisions for several same-tenant jobs in
// one round trip. The jobs share one solve fan-out across the worker pool
// (each selection is a cache hit or a full solve) and — the point — one
// atomic ledger debit for the whole accepted set: with escrow accounting on,
// a batch of N admits costs one CAS on the tenant's lease instead of N, so
// high-arrival tenants stop serializing on their own budget counter.
//
// The batch is never forwarded: its jobs span plan-key owners, so there is
// no single replica to forward to. Any replica can serve it correctly (the
// tenant debit goes through this replica's escrow lease; only cache
// partitioning is diluted); the ring-aware client groups jobs by owner and
// posts one sub-batch per owning replica to keep even that.

// admitBatchRequest asks for admission decisions for several jobs against
// one tenant's budget.
type admitBatchRequest struct {
	// Tenant names the budget pool to admit against. Required.
	Tenant string `json:"tenant"`
	// Jobs are the arriving jobs, decided independently but debited once.
	Jobs []admitBatchJob `json:"jobs"`
	// Econ overrides the tenant's planning defaults field by field for every
	// job in the batch; zero fields fall back to the pool's defaults.
	Econ chronos.Econ `json:"econ,omitempty"`
}

// admitBatchJob is one arriving job in a batch admission.
type admitBatchJob struct {
	Job chronos.JobParams `json:"job"`
	// Strategy optionally pins one Chronos strategy; empty or "best"
	// optimizes all three.
	Strategy string `json:"strategy,omitempty"`
}

// admitBatchResult is one job's decision, in request order.
type admitBatchResult struct {
	Admitted bool `json:"admitted"`
	// Plan is the admitted speculation plan, already debited. Absent on
	// rejection.
	Plan *chronos.Plan `json:"plan,omitempty"`
	// Reason is the structured rejection reason (ReasonBudgetExhausted or
	// ReasonInfeasible). Absent on admission.
	Reason string `json:"reason,omitempty"`
}

type admitBatchResponse struct {
	Tenant  string             `json:"tenant"`
	Results []admitBatchResult `json:"results"`
	// Admitted counts the accepted jobs (the true entries in Results).
	Admitted int `json:"admitted"`
	// BudgetRemaining is the pool's machine-time level after the batch's
	// single debit.
	BudgetRemaining float64 `json:"budgetRemaining"`
}

// handleAdmitBatch serves POST /v1/admit/batch.
func (s *Server) handleAdmitBatch(w http.ResponseWriter, r *http.Request) {
	var req admitBatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	tr := obs.FromContext(r.Context())
	tr.SetTenant(req.Tenant)
	pool, ok := s.lookupPool(w, r, req.Tenant)
	if !ok {
		return
	}
	if len(req.Jobs) == 0 {
		s.apiError(w, r, http.StatusBadRequest, "batch has no jobs")
		return
	}
	if len(req.Jobs) > s.cfg.MaxBatchJobs {
		s.apiError(w, r, http.StatusBadRequest,
			"batch has %d jobs, limit %d", len(req.Jobs), s.cfg.MaxBatchJobs)
		return
	}
	econ := tenantEcon(req.Econ, pool)

	// Resolve every job's strategy and plan key up front; an unparseable
	// strategy name is the request's fault, not an admission decision.
	type batchJob struct {
		strat chronos.Strategy
		best  bool
		key   []byte
		err   error
	}
	jobs := make([]batchJob, len(req.Jobs))
	for i, j := range req.Jobs {
		strat, best, ok := keyStrategy(j.Strategy)
		if !ok {
			s.apiError(w, r, http.StatusBadRequest, "job %d: unknown strategy %q", i, j.Strategy)
			return
		}
		jobs[i] = batchJob{
			strat: strat, best: best,
			key: plankey.AppendKey(nil, cacheStrategyName(strat, best), j.Job, econ),
		}
	}

	// One solve fan-out warms the cache for every distinct cell, so the
	// sequential allocation below is all cache hits.
	s.pool.fanOut(len(req.Jobs), func(i int) {
		// Pool goroutines run outside net/http's per-connection recover;
		// contain panics to the one job instead of crashing the daemon.
		defer func() {
			if p := recover(); p != nil {
				jobs[i].err = fmt.Errorf("job %d: %w: %v", i, errInternal, p)
			}
		}()
		_, _, err := s.cachedPlanKeyed(tr, jobs[i].key, jobs[i].strat, jobs[i].best, req.Jobs[i].Job, econ)
		jobs[i].err = err
	})

	bud := s.tenantBudget(r.Context(), req.Tenant, pool)
	plans := make([]chronos.Plan, len(req.Jobs))
	results := make([]admitBatchResult, len(req.Jobs))
	for attempt := 0; attempt < admitDebitRetries; attempt++ {
		// Allocate against a snapshot of the ledger: jobs are decided in
		// request order, each squeezed into whatever the ones before it left.
		remaining := bud.Remaining()
		left := remaining
		total := 0.0
		admitted := 0
		for i := range jobs {
			results[i] = admitBatchResult{}
			if jobs[i].err != nil {
				if reason := rejectReason(jobs[i].err); reason != "" {
					results[i].Reason = reason
					continue
				}
				s.apiError(w, r, planStatus(jobs[i].err), "%v", jobs[i].err)
				return
			}
			plan, err := s.planWithinBudget(tr, jobs[i].key, jobs[i].strat, jobs[i].best,
				req.Jobs[i].Job, econ, left)
			if err != nil {
				if reason := rejectReason(err); reason != "" {
					results[i].Reason = reason
					continue
				}
				s.apiError(w, r, planStatus(err), "job %d: %v", i, err)
				return
			}
			plans[i] = plan
			results[i].Admitted = true
			results[i].Plan = &plans[i]
			total += plan.MachineTime
			left -= plan.MachineTime
			admitted++
		}
		if admitted == 0 {
			s.finishAdmitBatch(w, r, req.Tenant, results, 0, remaining)
			return
		}
		// The whole accepted set settles in ONE debit. Clamp to the snapshot
		// the allocation ran against, so per-item float accumulation cannot
		// push the total an epsilon past a ledger that would otherwise cover
		// it (same guard as /v1/plan/batch).
		debit := total
		if debit > remaining {
			debit = remaining
		}
		dStart := time.Now()
		ok, rem := bud.TryDebit(debit)
		tr.Observe(obs.StageDebit, time.Since(dStart))
		if ok {
			s.finishAdmitBatch(w, r, req.Tenant, results, admitted, rem)
			return
		}
		// A concurrent admit drained the snapshot we planned against;
		// re-allocate against the new level.
	}
	// Retries exhausted: the ledger is being drained faster than we can plan
	// against it. Reject the whole batch on budget grounds.
	for i := range results {
		if results[i].Admitted {
			results[i] = admitBatchResult{Reason: ReasonBudgetExhausted}
		}
	}
	s.finishAdmitBatch(w, r, req.Tenant, results, 0, bud.Remaining())
}

// finishAdmitBatch counts the decisions into the tenant metrics and writes
// the response.
func (s *Server) finishAdmitBatch(w http.ResponseWriter, r *http.Request, tenantName string, results []admitBatchResult, admitted int, remaining float64) {
	for i := range results {
		switch {
		case results[i].Admitted:
			s.metrics.plans.inc(results[i].Plan.Strategy.String())
			s.metrics.tenantAdmit(tenantName, results[i].Plan.Strategy.String())
		case results[i].Reason != "":
			s.metrics.tenantReject(tenantName, results[i].Reason)
		}
	}
	s.writeJSON(w, r, http.StatusOK, admitBatchResponse{
		Tenant:          tenantName,
		Results:         results,
		Admitted:        admitted,
		BudgetRemaining: remaining,
	})
}
