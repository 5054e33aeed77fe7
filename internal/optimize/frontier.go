package optimize

import (
	"math"
	"slices"

	"chronos/internal/analysis"
)

// Frontier is the precomputed form of SolveCapped for one (strategy, params,
// config) cell. Everything SolveCapped derives before it compares against
// the budget — the unconstrained optimum and the bounded scan window of
// points above the feasibility frontier — is a pure function of the cell
// alone. A warm cell therefore pays the bisection and the window's
// closed-form evaluations once, at table build time; each subsequent capped
// solve is a linear pass over the table with no model evaluations at all.
//
// Solve(budget) returns bit-identical results (and errors) to
// SolveCapped(s, p, cfg, budget) for every budget — both end in within —
// which the root package's TestBudgetFrontier* tests pin down, error text
// included.
type Frontier struct {
	unconstrained Result
	window        []Point
	cheapest      float64 // cheapestFeasible(window), for the rejection text
}

// NewFrontier precomputes the SolveCapped scan for one cell. Errors are
// exactly SolveStrategy's: validation failures, or ErrInfeasible when no r
// is feasible regardless of budget (in which case no table can help).
func NewFrontier(s analysis.Strategy, p analysis.Params, cfg Config) (*Frontier, error) {
	if err := validate(cfg, p); err != nil {
		return nil, err
	}
	mm := acquireStrategy(s, p)
	defer mm.release()
	un, err := mm.solve(cfg)
	if err != nil {
		return nil, err
	}
	window := slices.Clone(mm.scanWindow(cfg, un.R))
	return &Frontier{unconstrained: un, window: window, cheapest: cheapestFeasible(window)}, nil
}

// Unconstrained returns the cell's unconstrained optimum — what SolveCapped
// returns whenever the budget covers it.
func (f *Frontier) Unconstrained() Result { return f.unconstrained }

// Solve answers SolveCapped(s, p, cfg, budget) from the table.
func (f *Frontier) Solve(budget float64) (Result, error) {
	if math.IsNaN(budget) {
		return Result{}, ErrNaNBudget
	}
	if f.unconstrained.MachineTime <= budget {
		return f.unconstrained, nil
	}
	return within(f.unconstrained.Strategy, f.window, f.cheapest, budget)
}
