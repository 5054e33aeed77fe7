package chronos

import (
	"math"

	"chronos/internal/optimize"
)

// BudgetFrontier is the precomputed form of OptimizeWithinBudget /
// OptimizeBestWithinBudget for one (job, econ, strategy-selector) cell. An
// admission controller squeezing repeated identical jobs against a
// draining ledger re-derives the same feasibility frontier on every
// request; building it once turns each subsequent capped solve into a scan
// of an in-memory table with no model evaluations.
//
// Each strategy's table keeps only the plans some budget can pick: the
// points of its scan window that no cheaper-or-equal point beats on
// utility (or ties at lower r), in r order — a few of the window's ~70,
// about 600 bytes for all three tables of a typical cell. Machine time may
// dip as r grows; the table is pruned by machine time, not by r, so a dip
// only changes which points stay, never an answer.
//
// PlanWithinBudget returns bit-identical plans and errors to the
// corresponding Optimize*WithinBudget call for every budget.
type BudgetFrontier struct {
	// tables holds one capped-solve table per Chronos strategy, indexed by
	// strategy - Clone. A nil entry is a strategy that is infeasible at any
	// budget or, under a pinned construction, was not asked for.
	tables [3]*optimize.Frontier
	// pinned is the one strategy of a pinned construction; zero selects the
	// best of three.
	pinned Strategy
	// unconstrained is the best plan at an unlimited budget.
	unconstrained Plan
}

// table builds strategy s's capped-solve table into bf and returns its
// unconstrained optimum.
func (bf *BudgetFrontier) table(s Strategy, p JobParams, e Econ) (Plan, error) {
	kind, ap, err := analytic(s, p)
	if err != nil {
		return Plan{}, err
	}
	f, err := optimize.NewFrontier(kind, ap, optimize.Config(e))
	if err != nil {
		return Plan{}, err
	}
	bf.tables[s-Clone] = f
	return planOf(s, f.Unconstrained(), nil)
}

// NewBudgetFrontier precomputes the capped-solve table for one pinned
// strategy. Errors are OptimizeWithinBudget's budget-independent ones:
// ErrNotAnalytic, parameter validation, ErrInfeasible.
func NewBudgetFrontier(s Strategy, p JobParams, e Econ) (*BudgetFrontier, error) {
	bf := &BudgetFrontier{pinned: s}
	var err error
	if bf.unconstrained, err = bf.table(s, p, e); err != nil {
		return nil, err
	}
	return bf, nil
}

// NewBudgetFrontierBest precomputes the capped-solve tables for all three
// Chronos strategies. Strategies that are infeasible at any budget are
// recorded as such (PlanWithinBudget skips them exactly like
// OptimizeBestWithinBudget does); the constructor fails only when a
// budget-independent hard error occurs or every strategy is infeasible.
func NewBudgetFrontierBest(p JobParams, e Econ) (*BudgetFrontier, error) {
	bf := new(BudgetFrontier)
	var err error
	bf.unconstrained, err = bestOf(func(_ int, s Strategy) (Plan, error) { return bf.table(s, p, e) })
	if err != nil {
		return nil, err
	}
	return bf, nil
}

// PlanWithinBudget answers OptimizeWithinBudget (pinned construction) or
// OptimizeBestWithinBudget (best-of-three construction) from the tables.
func (bf *BudgetFrontier) PlanWithinBudget(budget float64) (Plan, error) {
	if math.IsNaN(budget) {
		// SolveCapped rejects a NaN budget before solving, so even cells
		// whose strategies are all infeasible report this first.
		return Plan{}, optimize.ErrNaNBudget
	}
	within := func(s Strategy) (Plan, error) {
		f := bf.tables[s-Clone]
		if f == nil {
			return Plan{}, optimize.ErrInfeasible
		}
		res, err := f.Solve(budget)
		return planOf(s, res, err)
	}
	if bf.pinned != 0 {
		// Not through bestOf: a pinned rejection keeps the solver's "need X,
		// have Y" detail, best-of-three reports the bare sentinel.
		return within(bf.pinned)
	}
	return bestOf(func(_ int, s Strategy) (Plan, error) { return within(s) })
}

// Unconstrained returns the best unconstrained plan across the tables —
// what PlanWithinBudget returns for any budget that covers it, and the
// plan OptimizeBest / Optimize would compute for the same cell.
func (bf *BudgetFrontier) Unconstrained() Plan { return bf.unconstrained }
