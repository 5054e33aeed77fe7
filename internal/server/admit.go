package server

import (
	"cmp"
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
		if _, rem, err = s.admitJobs(tr, pool, jobs, results, &hb.walk); err != nil {
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

// admitJob is one job crossing admitJobs: its cell, its unconstrained
// optimum, and the plan its result points at.
type admitJob struct {
	cell
	opt    chronos.Plan
	reason string // api.ReasonInfeasible when the job has no optimum
	in     bool   // whether the job is admitted in the current allocation
	plan   chronos.Plan
}

// admitJobs decides jobs against one tenant's pool and settles the whole
// accepted set in ONE debit: the body of /v1/admit and /v1/admit/batch on
// the pool's owner. When the jobs' optima fit the pool, each job gets its
// optimum. Otherwise request order decides who is admitted, and the
// shared-budget walk of /v1/plan/batch decides how much each admitted job
// gets (walkPool). results[i] is job i's decision; remaining is the pool
// level to report. A non-nil error is one job's request fault, prefixed with
// its index; nothing was debited or counted.
func (s *Server) admitJobs(tr *obs.Trace, pool *tenant.Pool, jobs []admitJob, results []api.AdmitBatchResult, walk *chronos.FrontierWalk) (admitted int, remaining float64, err error) {
	optima := 0.0
	for i := range jobs {
		j := &jobs[i]
		var err error
		if j.opt, _, err = s.cachedPlan(tr, &j.cell); errors.Is(err, optimize.ErrInfeasible) {
			j.reason = api.ReasonInfeasible
		} else if err != nil {
			// Not an admission decision: the job itself is malformed.
			return 0, 0, fmt.Errorf("job %d: %w", i, err)
		}
		optima += j.opt.MachineTime // zero without an optimum
	}
	remaining, settled, err := s.settle(tr, pool, func(left float64) (float64, error) {
		squeezed := optima > left
		if squeezed {
			if err := s.walkPool(tr, jobs, walk, left); err != nil {
				return 0, err
			}
		}
		total := 0.0
		admitted = 0
		for i := range jobs {
			j := &jobs[i]
			if !squeezed {
				j.plan, j.in = j.opt, j.reason == ""
			}
			if !j.in {
				results[i] = api.AdmitBatchResult{Reason: cmp.Or(j.reason, api.ReasonBudgetExhausted)}
				continue
			}
			results[i] = api.AdmitBatchResult{Admitted: true, Plan: &j.plan}
			total += j.plan.MachineTime
			admitted++
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

// walkPool splits a pool the jobs' optima overrun. In request order, each job
// with an optimum enters the walk at its cheapest plan if that fits beside
// the cheapest plans of the jobs entered before it; the walk then spends the
// rest of the pool across the entered jobs and sets their plans. The options
// come from each cell's budget frontier, cached beside its plan, so a warm
// batch evaluates no model.
func (s *Server) walkPool(tr *obs.Trace, jobs []admitJob, walk *chronos.FrontierWalk, pool float64) error {
	start := time.Now()
	defer func() { tr.Observe(obs.StageSolve, time.Since(start)) }()
	walk.Reset()
	for i := range jobs {
		j := &jobs[i]
		if j.in = false; j.reason != "" {
			continue
		}
		bf := s.cache.frontier(j.key)
		if bf == nil {
			var err error
			if bf, err = j.frontier(); err != nil {
				return fmt.Errorf("job %d: %w", i, err)
			}
			s.cache.setFrontier(j.key, bf)
		}
		j.in = walk.Add(bf, pool, &j.plan)
	}
	walk.Spend(pool)
	return nil
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
