package server

import (
	"net/http"

	"chronos/api"
	"chronos/internal/obs"
	"chronos/internal/plankey"
)

// POST /v1/admit/batch: admission decisions for several same-tenant jobs in
// one round trip. The jobs are planned in order through the plan cache (each
// is a cache hit or a full solve, so repeated shapes solve once) and — the
// point — settled in one atomic ledger debit for the whole accepted set:
// with escrow accounting on, a batch of N admits costs one CAS on the
// tenant's lease instead of N, so high-arrival tenants stop serializing on
// their own budget counter.
//
// The batch is never forwarded: its jobs span plan-key owners, so there is
// no single replica to forward to. Any replica can serve it correctly (the
// tenant debit goes through this replica's escrow lease; only cache
// partitioning is diluted); the ring-aware client groups jobs by owner and
// posts one sub-batch per owning replica to keep even that.

// handleAdmitBatch serves POST /v1/admit/batch.
func (s *Server) handleAdmitBatch(w http.ResponseWriter, r *http.Request) {
	var req api.AdmitBatchRequest
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
	// strategy name is the request's fault, not an admission decision. The
	// keys share one buffer, sized once from their fixed lengths, each cell's
	// key a cap-limited window of it.
	jobs := make([]admitJob, len(req.Jobs))
	n := 0
	for i, j := range req.Jobs {
		strat, best, ok := plankey.ParseStrategy(j.Strategy)
		if !ok {
			s.apiError(w, r, http.StatusBadRequest, "job %d: unknown strategy %q", i, j.Strategy)
			return
		}
		c := &jobs[i].cell
		*c = cell{strat: strat, best: best, job: j.Job, econ: econ}
		n += plankey.Len(c.name())
	}
	keys := make([]byte, 0, n)
	for i := range jobs {
		c := &jobs[i].cell
		start := len(keys)
		keys = plankey.AppendKey(keys, c.name(), c.job, c.econ)
		c.key = keys[start:len(keys):len(keys)]
	}
	results := make([]api.AdmitBatchResult, len(jobs))
	admitted, remaining, err := s.admitJobs(tr, req.Tenant, s.tenantBudget(r.Context(), req.Tenant, pool), jobs, results)
	if err != nil {
		s.apiError(w, r, planStatus(err), "%v", err)
		return
	}
	s.writeJSON(w, r, http.StatusOK, api.AdmitBatchResponse{
		Tenant:          req.Tenant,
		Results:         results,
		Admitted:        admitted,
		BudgetRemaining: remaining,
	})
}
