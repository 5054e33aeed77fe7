package server

import (
	"time"

	"chronos"
	"chronos/internal/hotjson"
	"chronos/internal/obs"
	"chronos/internal/plankey"
)

// cell is one planning problem as the plan cache sees it: a job under its
// economics, pinned to one strategy or left open to the best of the three,
// and the exact-bit key naming the cache cell it falls in. The methods below
// are the only code that branches on best.
type cell struct {
	strat chronos.Strategy
	best  bool
	job   chronos.JobParams
	econ  chronos.Econ
	key   []byte
	// keyed is when the key build ended, and so where the cache probe's
	// StageCache span starts. Work that may record a span of its own between
	// them (a forward attempt, the admit path's budget read) clears it, and
	// cachedPlan then reads the clock itself.
	keyed time.Time
}

// name is the strategy component of the plan cache key: the canonical name
// for pinned plans, "" for best-of-three.
func (c *cell) name() string {
	if c.best {
		return ""
	}
	return c.strat.String()
}

// buildKey appends the cell's plan key to buf and keeps it as c.key, observed
// as a StageQuantize span whose end is c.keyed. The end is start plus the
// span, one monotonic clock read, where time.Now would read the wall clock
// too.
func (c *cell) buildKey(tr *obs.Trace, buf []byte) {
	start := time.Now()
	c.key = plankey.AppendKey(buf, c.name(), c.job, c.econ)
	d := time.Since(start)
	c.keyed = start.Add(d)
	tr.Observe(obs.StageQuantize, d)
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
// The StageCache span starts at c.keyed when it is set, so the key build and
// the probe share one clock read at their boundary.
//
// With dst non-nil (/v1/plan, which passes its response buffer), the plan's
// wire form (hotjson.AppendPlan) is appended to dst as well: a hit copies it
// from the slot, a miss renders it and stores it with the plan. A plan
// hotjson cannot render comes back with dst as given, for the caller's own
// encode to report. With dst nil, out is nil.
//
// A miss solves on the request's own goroutine. A solve costs a few
// microseconds, so concurrent misses on one key each solve (and the last
// insert wins) rather than wait on one another, and a batch's repeated shapes
// are hits after their first job.
func (s *Server) cachedPlan(tr *obs.Trace, c *cell, dst []byte) (plan chronos.Plan, out []byte, cached bool, err error) {
	cStart := c.keyed
	if cStart.IsZero() {
		cStart = time.Now()
	}
	c.keyed = time.Time{}
	plan, out, hit := s.cache.get(c.key, dst)
	tr.Observe(obs.StageCache, time.Since(cStart))
	if hit {
		return plan, out, true, nil
	}
	if s.solveHook != nil {
		s.solveHook(string(c.key))
	}
	sStart := time.Now()
	plan, err = c.solve()
	tr.Observe(obs.StageSolve, time.Since(sStart))
	if err != nil {
		return chronos.Plan{}, dst, false, err
	}
	var rendered []byte
	if dst != nil {
		if b, err := hotjson.AppendPlan(dst, &plan); err == nil {
			out, rendered = b, b[len(dst):]
		}
	}
	s.cache.put(c.key, plan, rendered)
	return plan, out, false, nil
}
