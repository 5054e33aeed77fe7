package optimize

import (
	"cmp"
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
// The table keeps only the window's undominated points, in r order: a point
// goes when another costs no more machine time and has higher utility, or
// equal utility at lower r, because that other point is affordable whenever
// it is and within prefers it. What is left is exactly the set of answers
// within gives for some budget — each kept point is the answer at its own
// machine time — typically a few of the window's ~70 points. Nothing here
// assumes machine time rises with r (it dips for the reactive strategies):
// undominated compares each point with every point that costs no more,
// whatever its r, never with its neighbour in r.
//
// Solve(budget) returns bit-identical results (and errors) to
// SolveCapped(s, p, cfg, budget) for every budget — both end in within —
// which TestFrontierMatchesSolveCappedAtEveryBreakpoint and the root
// package's TestBudgetFrontier* tests pin down, error text included.
type Frontier struct {
	unconstrained Result
	points        []Point // the window's undominated points, in r order
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
	window := mm.scanWindow(cfg, un.R)
	return &Frontier{unconstrained: un, points: mm.undominated(window)}, nil
}

// undominated returns a fresh slice of the window points within can pick
// for some budget, in r order: a Frontier's table, and a batch job's options
// (BatchSolve). It sorts indices into the memo's scratch by
// machine time, then utility descending, then r, so every point that could
// dominate a point precedes it; one pass keeping each point that beats the
// best before it then leaves exactly the undominated ones.
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
	kept, bestU, best := m.order[:0], math.Inf(-1), int32(0)
	for _, i := range m.order {
		if u := window[i].Utility; u > bestU || u == bestU && i < best {
			kept, bestU, best = append(kept, i), u, i
		}
	}
	slices.Sort(kept)
	points := make([]Point, len(kept))
	for k, i := range kept {
		points[k] = window[i]
	}
	return points
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
	return within(f.unconstrained.Strategy, f.points, budget)
}
