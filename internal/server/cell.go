package server

import (
	"time"

	"chronos"
	"chronos/internal/obs"
	"chronos/internal/plankey"
)

// cell is one planning problem as the plan cache sees it: a job under its
// economics, pinned to one strategy or left open to the best of the three,
// and the quantised key naming the cache cell it falls in. The methods below
// are the only code that branches on best.
type cell struct {
	strat chronos.Strategy
	best  bool
	job   chronos.JobParams
	econ  chronos.Econ
	key   []byte
}

// name is the strategy component of the plan cache key: the canonical name
// for pinned plans, "" for best-of-three.
func (c *cell) name() string {
	if c.best {
		return ""
	}
	return c.strat.String()
}

// quantize appends the cell's plan key to buf and keeps it as c.key, observed
// as a StageQuantize span.
func (c *cell) quantize(tr *obs.Trace, buf []byte) {
	start := time.Now()
	c.key = plankey.AppendKey(buf, c.name(), c.job, c.econ)
	tr.Observe(obs.StageQuantize, time.Since(start))
}

// solve runs the unconstrained optimization.
func (c *cell) solve() (chronos.Plan, error) {
	if c.best {
		return chronos.OptimizeBest(c.job, c.econ)
	}
	return chronos.Optimize(c.strat, c.job, c.econ)
}

// frontier precomputes the cell's budget-feasibility frontier.
func (c *cell) frontier() (*chronos.BudgetFrontier, error) {
	if c.best {
		return chronos.NewBudgetFrontierBest(c.job, c.econ)
	}
	return chronos.NewBudgetFrontier(c.strat, c.job, c.econ)
}

// cachedPlan returns the cell's unconstrained optimal plan from the sharded
// plan cache, solving and populating it on a miss. Every planning path —
// /v1/plan, both batch endpoints, and admission control — goes through here,
// so cache policy (and its stage instrumentation) lives in one place. The key
// usually still lives in a pooled request buffer: a hit probes with it and a
// miss copies it into the slot it takes, so neither allocates.
//
// A miss solves on the request's own goroutine. A solve costs a few
// microseconds, so concurrent misses on one key each solve (and the last
// insert wins) rather than wait on one another, and a batch's repeated shapes
// are hits after their first job.
func (s *Server) cachedPlan(tr *obs.Trace, c *cell) (plan chronos.Plan, cached bool, err error) {
	cStart := time.Now()
	plan, hit := s.cache.get(c.key)
	tr.Observe(obs.StageCache, time.Since(cStart))
	if hit {
		return plan, true, nil
	}
	if s.solveHook != nil {
		s.solveHook(string(c.key))
	}
	sStart := time.Now()
	plan, err = c.solve()
	tr.Observe(obs.StageSolve, time.Since(sStart))
	if err != nil {
		return chronos.Plan{}, false, err
	}
	s.cache.put(c.key, plan)
	return plan, false, nil
}

// planWithin returns the cell's best plan whose expected machine time fits
// budget. The unconstrained optimum comes from (and populates) the plan
// cache — squeezed plans depend on the transient ledger level and are never
// cached. What is cached, attached to the same entry, is the cell's
// precomputed feasibility frontier (chronos.BudgetFrontier): the first
// budget-squeezed admit in a cell pays the bisection and window scan once,
// and every later squeeze in the warm cell answers from the table with no
// model evaluations (and, on the admit path, no allocation).
func (s *Server) planWithin(tr *obs.Trace, c *cell, budget float64) (chronos.Plan, error) {
	plan, _, err := s.cachedPlan(tr, c)
	if err != nil {
		return chronos.Plan{}, err
	}
	if plan.MachineTime <= budget {
		return plan, nil
	}
	sStart := time.Now()
	defer func() { tr.Observe(obs.StageSolve, time.Since(sStart)) }()
	bf := s.cache.frontier(c.key)
	if bf == nil {
		if bf, err = c.frontier(); err != nil {
			return chronos.Plan{}, err
		}
		s.cache.setFrontier(c.key, bf)
	}
	return bf.PlanWithinBudget(budget)
}
