package server

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"chronos"
	"chronos/api"
	"chronos/internal/hotjson"
	"chronos/internal/obs"
	"chronos/internal/optimize"
	"chronos/internal/plankey"
	"chronos/internal/tenant"
)

// admitDebitRetries bounds settle's allocate-then-debit loop.
const admitDebitRetries = 3

// handleAdmit serves POST /v1/admit: accept/reject + plan in one round
// trip, the paper's online setting. The optimizer runs against the tenant's
// remaining budget on the tenant's pool owner (ledger.go); an accepted plan
// is debited atomically, a rejection carries a structured reason. It is
// /v1/admit/batch for one job, and like it runs on the pooled hotBuf, so a
// warm admit allocates nothing.
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
	strat, best, ok := plankey.ParseStrategy(req.Strategy)
	if !ok {
		s.apiError(w, r, http.StatusBadRequest, "unknown strategy %q", req.Strategy)
		return
	}
	jobs, results := hb.admitScratch(1)
	var rem float64
	switch s.routeAdmit(w, r, "/v1/admit", req.Tenant, hb.in) {
	case admitRelayed:
		return
	case admitRefused:
		s.refuseAll(req.Tenant, results)
	default:
		req.Econ = tenantEcon(req.Econ, pool)
		j := &jobs[0]
		*j = admitJob{cell: cell{strat: strat, best: best, job: req.Job, econ: req.Econ}}
		j.buildKey(tr, hb.key[:0])
		hb.key = j.key
		var err error
		if _, rem, err = s.admitJobs(tr, pool, jobs, results); err != nil {
			// A lone job has no index worth reporting.
			err = errors.Unwrap(err)
			s.apiError(w, r, planStatus(err), "%v", err)
			return
		}
	}
	res := &results[0]
	hb.admitResp = api.AdmitResponse{
		Admitted: res.Admitted, Tenant: req.Tenant, Plan: res.Plan, Reason: res.Reason, BudgetRemaining: rem,
	}
	out, err := hotjson.AppendAdmitResponse(hb.out[:0], &hb.admitResp)
	if err != nil {
		s.encodeFailed(w, r, err)
		return
	}
	hb.out = out
	writeHotBody(w, http.StatusOK, out)
}

// admitJob is one job crossing admitJobs: its cell and the plan its result
// points at.
type admitJob struct {
	cell
	plan chronos.Plan
}

// admitJobs decides jobs in request order against one tenant's pool —
// each squeezed into whatever the ones before it left — and settles the
// whole accepted set in ONE debit: the body of /v1/admit and /v1/admit/batch
// on the pool's owner. results[i] is job i's decision; remaining is the
// pool level to report. A non-nil error is one job's request fault, prefixed
// with its index; nothing was debited or counted.
func (s *Server) admitJobs(tr *obs.Trace, pool *tenant.Pool, jobs []admitJob, results []api.AdmitBatchResult) (admitted int, remaining float64, err error) {
	remaining, settled, err := s.settle(tr, pool, func(left float64) (float64, error) {
		total := 0.0
		admitted = 0
		for i := range jobs {
			j := &jobs[i]
			var err error
			j.plan, err = s.planWithin(tr, &j.cell, left)
			switch reason := rejectReason(err); {
			case err == nil:
				results[i] = api.AdmitBatchResult{Admitted: true, Plan: &j.plan}
				total += j.plan.MachineTime
				left -= j.plan.MachineTime
				admitted++
			case reason != "":
				results[i] = api.AdmitBatchResult{Reason: reason}
			default:
				// Not an admission decision: the job itself is malformed.
				return 0, fmt.Errorf("job %d: %w", i, err)
			}
		}
		return total, nil
	})
	if err != nil {
		return 0, 0, err
	}
	if !settled {
		// The ledger is being drained faster than we can plan against it:
		// reject the whole accepted set on budget grounds.
		for i := range results {
			if results[i].Admitted {
				results[i] = api.AdmitBatchResult{Reason: api.ReasonBudgetExhausted}
			}
		}
		admitted, remaining = 0, pool.Remaining()
	}
	tenantName := pool.Name()
	for i := range results {
		if results[i].Admitted {
			s.metrics.plans.inc(jobs[i].plan.Strategy.String())
			s.metrics.tenantAdmit(tenantName, jobs[i].plan.Strategy.String())
		} else {
			s.metrics.tenantReject(tenantName, results[i].Reason)
		}
	}
	return admitted, remaining, nil
}

// settle is the one ledger-settlement loop: snapshot the pool's level, run
// allocate against the snapshot, debit what it asks for once through the
// ledger, and when a concurrent request won the race for that remainder
// re-allocate against the shrunken pool instead of over-committing it.
// allocate returns the machine time to debit; zero means it accepted nothing
// and the snapshot is reported back untouched. settled is false when
// admitDebitRetries allocations all lost their debit. An allocate error ends
// the loop.
func (s *Server) settle(tr *obs.Trace, pool *tenant.Pool, allocate func(remaining float64) (debit float64, err error)) (remaining float64, settled bool, err error) {
	for attempt := 0; attempt < admitDebitRetries; attempt++ {
		remaining = pool.Remaining()
		debit, err := allocate(remaining)
		if err != nil || debit == 0 {
			return remaining, err == nil, err
		}
		// Clamp to the snapshot the allocation ran against, so per-item float
		// accumulation cannot push the total an epsilon past a ledger that
		// would otherwise cover it. The debit is one StageDebit span.
		start := time.Now()
		ok, rem := s.ledger.DebitLocal(pool.Name(), min(debit, remaining))
		tr.Observe(obs.StageDebit, time.Since(start))
		if ok {
			return rem, true, nil
		}
	}
	return 0, false, nil
}

// rejectReason maps optimization failures onto the admission-control
// rejection vocabulary; "" marks errors that are the request's fault
// (reported as HTTP errors instead).
func rejectReason(err error) string {
	switch {
	case errors.Is(err, optimize.ErrBudgetTooSmall):
		return api.ReasonBudgetExhausted
	case errors.Is(err, optimize.ErrInfeasible):
		return api.ReasonInfeasible
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
