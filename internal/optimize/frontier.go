package optimize

import (
	"cmp"
	"math"
	"slices"

	"chronos/internal/analysis"
)

// Options is the precomputed form of SolveCapped for one (strategy, params,
// config) cell. Everything SolveCapped derives before it compares against
// the budget — the unconstrained optimum and the bounded scan window of
// points above the feasibility frontier — is a pure function of the cell
// alone, so a cached cell pays the bisection and the window's closed-form
// evaluations once.
//
// It returns the unconstrained optimum and the window's options: its
// undominated points by machine time, each of higher utility than every
// cheaper one — typically a few of the window's ~70 points. For every
// budget below the optimum's machine time, the dearest option that fits is
// SolveCapped's answer (both apply within's rule), and a budget below the
// first option's machine time is SolveCapped's rejection, which names that
// machine time. Nothing here assumes machine time rises with r (it dips for
// the reactive strategies): undominated compares each point with every
// point that costs no more, whatever its r, never with its neighbour in r.
// TestFrontierMatchesSolveCappedAtEveryBreakpoint pins this down.
//
// Errors are exactly SolveStrategy's: validation failures, or ErrInfeasible
// when no r is feasible regardless of budget.
func Options(s analysis.Strategy, p analysis.Params, cfg Config) (Result, []Point, error) {
	if err := validate(cfg, p); err != nil {
		return Result{}, nil, err
	}
	mm := acquireStrategy(s, p)
	defer mm.release()
	un, err := mm.solve(cfg)
	if err != nil {
		return Result{}, nil, err
	}
	return un, mm.undominated(mm.scanWindow(cfg, un.R)), nil
}

// Fit returns the index of the dearest of opts that fits budget: opts are
// options by machine time, each of higher utility than every cheaper one, so
// that is the most useful plan the budget buys. When none fits, the error is
// ErrBudgetTooSmall naming opts[0]'s machine time, what the budget would have
// had to be.
func Fit(opts []Point, budget float64) (int, error) {
	for k := len(opts) - 1; k >= 0; k-- {
		if opts[k].MachineTime <= budget {
			return k, nil
		}
	}
	return -1, &budgetError{need: opts[0].MachineTime, have: budget}
}

// undominated returns a fresh slice of the window points within can pick
// for some budget, by machine time: a cell's Options, and a batch job's
// (BatchSolve). It sorts indices into the memo's scratch by machine time,
// then utility descending, then r, so every point that could dominate a
// point precedes it; one pass keeping each point that beats the utility of
// all before it then leaves exactly the undominated ones. Of points tied on
// utility that keeps the cheapest, then the lowest r: within's rule.
func (m *memoModel) undominated(window []Point) []Point {
	m.order = m.order[:0]
	for i := range window {
		m.order = append(m.order, int32(i))
	}
	slices.SortFunc(m.order, func(i, j int32) int {
		a, b := &window[i], &window[j]
		return cmp.Or(cmp.Compare(a.MachineTime, b.MachineTime), cmp.Compare(b.Utility, a.Utility), cmp.Compare(i, j))
	})
	// A utility of -Inf or NaN never beats bestU, so a point within cannot
	// pick is never kept.
	kept, bestU := m.order[:0], math.Inf(-1)
	for _, i := range m.order {
		if u := window[i].Utility; u > bestU {
			kept, bestU = append(kept, i), u
		}
	}
	points := make([]Point, len(kept))
	for k, i := range kept {
		points[k] = window[i]
	}
	return points
}
