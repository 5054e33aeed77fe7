package server

import (
	"net/http"
	"slices"

	"chronos/api"
	"chronos/internal/hotjson"
	"chronos/internal/plankey"
)

// POST /v1/admit/batch: admission decisions for several same-tenant jobs in
// one round trip. Each job's optimum comes from the plan cache (a hit or a
// full solve, so repeated shapes solve once). When the optima overrun the
// pool, request order decides who is admitted and the shared-budget walk
// decides how much each admitted job gets (admitJobs). The accepted set is
// settled in one atomic ledger debit, so high-arrival tenants stop
// serializing on their own budget counter.
//
// A batch names one tenant, so it is decided where /v1/admit is: on the
// tenant's pool owner, to which any other replica relays it (ledger.go).

// handleAdmitBatch serves POST /v1/admit/batch on the pooled hotBuf, as
// handleAdmit serves one job: hotjson decodes the body into the pooled
// request and encodes the answer, and the jobs, results and plan keys are the
// object's scratch, so a warm batch allocates nothing.
func (s *Server) handleAdmitBatch(w http.ResponseWriter, r *http.Request) {
	hb := getHotBuf()
	defer putHotBuf(hb)
	var ok bool
	if hb.in, ok = s.readBody(w, r, hb.in); !ok {
		return
	}
	req := &hb.batchReq
	if err := hotjson.DecodeAdmitBatchRequest(hb.in, req, s); err != nil {
		s.apiError(w, r, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	tr := traceOf(w)
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

	// Resolve every job's strategy up front; an unparseable strategy name is
	// the request's fault, not an admission decision.
	jobs, results := hb.admitScratch(len(req.Jobs))
	for i := range req.Jobs {
		j := &req.Jobs[i]
		strat, best, ok := plankey.ParseStrategy(j.Strategy)
		if !ok {
			s.apiError(w, r, http.StatusBadRequest, "job %d: unknown strategy %q", i, j.Strategy)
			return
		}
		jobs[i] = admitJob{cell: cell{strat: strat, best: best, job: j.Job}}
	}
	var admitted int
	var remaining float64
	switch s.routeAdmit(w, r, "/v1/admit/batch", req.Tenant, hb.in) {
	case admitRelayed:
		return
	case admitRefused:
		s.refuseAll(req.Tenant, results)
	default:
		// The plan keys share one buffer, grown once from their fixed
		// lengths, each cell's key a cap-limited window of it.
		econ := tenantEcon(req.Econ, pool)
		n := 0
		for i := range jobs {
			jobs[i].econ = econ
			n += plankey.Len(jobs[i].name())
		}
		keys := slices.Grow(hb.key[:0], n)
		for i := range jobs {
			c := &jobs[i].cell
			start := len(keys)
			keys = plankey.AppendKey(keys, c.name(), c.job, c.econ)
			c.key = keys[start:len(keys):len(keys)]
		}
		hb.key = keys
		var err error
		if admitted, remaining, err = s.admitJobs(tr, pool, jobs, results, &hb.walk); err != nil {
			s.apiError(w, r, planStatus(err), "%v", err)
			return
		}
	}
	resp := api.AdmitBatchResponse{
		Tenant:          req.Tenant,
		Results:         results,
		Admitted:        admitted,
		BudgetRemaining: remaining,
	}
	out, err := hotjson.AppendAdmitBatchResponse(hb.out[:0], &resp)
	if err != nil {
		s.encodeFailed(w, r, err)
		return
	}
	// The newline json.Encoder ended this body with before, kept so every
	// answer keeps its bytes.
	hb.out = append(out, '\n')
	writeHotBody(w, http.StatusOK, hb.out)
}
