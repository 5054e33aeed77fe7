package chronos

import (
	"cmp"
	"math"
	"slices"

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
//
// The tables' points are also kept as one option list for the walk that
// splits a shared pool (FrontierWalk), built once with the tables.
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
	// options are the tables' points by machine time, each of higher
	// utility than every cheaper one (see listOptions), and strategies[k] is
	// options[k]'s strategy.
	options    []optimize.Point
	strategies []Strategy
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
	bf.listOptions()
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
	bf.listOptions()
	return bf, nil
}

// listOptions lists the tables' points by machine time, keeping a point only
// when its utility beats every cheaper-or-equal one's. Among points of equal
// machine time the one PlanWithinBudget would pick sorts first — the higher
// utility, then the earlier strategy, then the lower r — so the dearest
// option that fits a budget is PlanWithinBudget's plan at that budget, but
// for an exact tie in utility at different machine times, which goes to the
// cheaper plan. The list ends at the unconstrained optimum, the most useful
// point of all the tables.
func (bf *BudgetFrontier) listOptions() {
	type option struct {
		p optimize.Point
		s Strategy
	}
	var all []option
	for i, f := range bf.tables {
		if f != nil {
			for _, p := range f.Points() {
				all = append(all, option{p, Clone + Strategy(i)})
			}
		}
	}
	slices.SortFunc(all, func(a, b option) int {
		return cmp.Or(cmp.Compare(a.p.MachineTime, b.p.MachineTime), cmp.Compare(b.p.Utility, a.p.Utility),
			cmp.Compare(a.s, b.s), cmp.Compare(a.p.R, b.p.R))
	})
	best := math.Inf(-1)
	for _, o := range all {
		if o.p.Utility > best {
			bf.options, bf.strategies, best = append(bf.options, o.p), append(bf.strategies, o.s), o.p.Utility
		}
	}
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

// FrontierWalk splits one machine-time pool across jobs whose budget
// frontiers are built: PlanBatch's walk, over each frontier's options under
// its own job's econ. Add the jobs, then Spend. Its zero value is ready, and
// a reused FrontierWalk allocates nothing once grown.
type FrontierWalk struct {
	walk  optimize.Walk
	fs    []*BudgetFrontier // each job's frontier
	plans []*Plan           // where Spend writes each job's plan
}

// Reset empties the walk, keeping its capacity and no frontier or plan.
func (fw *FrontierWalk) Reset() {
	fw.walk.Reset()
	clear(fw.fs)
	clear(fw.plans)
	fw.fs, fw.plans = fw.fs[:0], fw.plans[:0]
}

// Add enters a job at its frontier's cheapest plan if that fits in pool
// beside the cheapest plans of the jobs already entered, and reports whether
// it did. Spend writes the job's plan to *plan.
func (fw *FrontierWalk) Add(bf *BudgetFrontier, pool float64, plan *Plan) bool {
	if !fw.walk.Add(bf.options, pool) {
		return false
	}
	fw.fs, fw.plans = append(fw.fs, bf), append(fw.plans, plan)
	return true
}

// Spend moves the jobs up their frontiers while a move that fits in pool
// gains utility, and writes each job's plan. A lone job ends at
// PlanWithinBudget(pool)'s plan.
func (fw *FrontierWalk) Spend(pool float64) {
	fw.walk.Spend(pool)
	for i, bf := range fw.fs {
		k := fw.walk.Index(i)
		p := bf.options[k]
		*fw.plans[i] = Plan{Strategy: bf.strategies[k], R: p.R, PoCD: p.PoCD, MachineTime: p.MachineTime, Cost: p.Cost, Utility: p.Utility}
	}
}
