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
// of an in-memory list with no model evaluations.
//
// It keeps the cell's unconstrained optimum and one option list: the plans
// some budget can pick, by machine time, each of higher utility than every
// cheaper one — the undominated points of the scan windows of the strategies
// asked for, merged; a few of the windows' ~70 points each, about 240 bytes
// for a typical best-of-three cell. Machine time may dip as r grows; the
// list is pruned by machine time, not by r, so a dip only changes which
// points stay, never an answer.
//
// Every choice between plans takes the higher utility; on an exact tie, the
// lower machine time; then the earlier strategy and the lower r. For a
// pinned cell PlanWithinBudget returns bit-identical plans and errors to
// OptimizeWithinBudget at every budget. For best of three it returns
// OptimizeBestWithinBudget's error, or a plan of the same utility that is
// the same plan but where plans tie on utility exactly:
// OptimizeBestWithinBudget takes each strategy's own optimum once the
// budget covers it, the list only the best-of-three optimum. The walk that
// splits a shared pool (FrontierWalk) reads the same list.
type BudgetFrontier struct {
	// pinned is the one strategy of a pinned construction; zero selects the
	// best of three.
	pinned Strategy
	// unconstrained is the best plan at an unlimited budget.
	unconstrained Plan
	// options are the plans some budget can pick, by machine time, each of
	// higher utility than every cheaper one, and strategies[k] is
	// options[k]'s strategy.
	options    []optimize.Point
	strategies []Strategy
}

// option is one strategy's point on the list a BudgetFrontier merges.
type option struct {
	p optimize.Point
	s Strategy
}

// strategyOptions returns strategy s's unconstrained optimum for the cell
// and appends its options to *all.
func strategyOptions(s Strategy, p JobParams, e Econ, all *[]option) (Plan, error) {
	kind, ap, err := analytic(s, p)
	if err != nil {
		return Plan{}, err
	}
	un, opts, err := optimize.Options(kind, ap, optimize.Config(e))
	if err != nil {
		return Plan{}, err
	}
	for _, o := range opts {
		*all = append(*all, option{o, s})
	}
	return planOf(s, un, nil)
}

// NewBudgetFrontier precomputes the option list for one pinned strategy.
// Errors are OptimizeWithinBudget's budget-independent ones:
// ErrNotAnalytic, parameter validation, ErrInfeasible.
func NewBudgetFrontier(s Strategy, p JobParams, e Econ) (*BudgetFrontier, error) {
	var all []option
	un, err := strategyOptions(s, p, e, &all)
	if err != nil {
		return nil, err
	}
	return newBudgetFrontier(s, un, all), nil
}

// NewBudgetFrontierBest precomputes the option list of all three Chronos
// strategies. Strategies that are infeasible at any budget contribute no
// options (OptimizeBestWithinBudget skips them too); the constructor fails
// only when a budget-independent hard error occurs or every strategy is
// infeasible.
func NewBudgetFrontierBest(p JobParams, e Econ) (*BudgetFrontier, error) {
	var all []option
	un, err := bestOf(func(_ int, s Strategy) (Plan, error) { return strategyOptions(s, p, e, &all) })
	if err != nil {
		return nil, err
	}
	return newBudgetFrontier(0, un, all), nil
}

// newBudgetFrontier lists all by machine time, keeping an option only when
// its utility beats every cheaper one's. Options of equal machine time sort
// by utility, highest first, then by strategy and r, so of options tied on
// utility the cheapest stays, then the earlier strategy, then the lower r.
func newBudgetFrontier(pinned Strategy, un Plan, all []option) *BudgetFrontier {
	slices.SortFunc(all, func(a, b option) int {
		return cmp.Or(cmp.Compare(a.p.MachineTime, b.p.MachineTime), cmp.Compare(b.p.Utility, a.p.Utility),
			cmp.Compare(a.s, b.s), cmp.Compare(a.p.R, b.p.R))
	})
	kept, best := all[:0], math.Inf(-1)
	for _, o := range all {
		if o.p.Utility > best {
			kept, best = append(kept, o), o.p.Utility
		}
	}
	bf := &BudgetFrontier{pinned: pinned, unconstrained: un,
		options: make([]optimize.Point, len(kept)), strategies: make([]Strategy, len(kept))}
	for k, o := range kept {
		bf.options[k], bf.strategies[k] = o.p, o.s
	}
	return bf
}

// plan returns option k as a Plan.
func (bf *BudgetFrontier) plan(k int) Plan {
	p := bf.options[k]
	return Plan{Strategy: bf.strategies[k], R: p.R, PoCD: p.PoCD, MachineTime: p.MachineTime, Cost: p.Cost, Utility: p.Utility}
}

// PlanWithinBudget answers OptimizeWithinBudget (pinned construction) or
// OptimizeBestWithinBudget (best-of-three construction) from the list: the
// unconstrained optimum when the budget covers it, otherwise the dearest
// option that fits. The optimum is answered as Algorithm 1 found it, not
// from the list, whose last option may differ from it in the last bits:
// fixed/tau-equal's Resume list ends at r = 69, an ulp cheaper than the
// optimum at r = 66.
func (bf *BudgetFrontier) PlanWithinBudget(budget float64) (Plan, error) {
	switch {
	case math.IsNaN(budget):
		// SolveCapped rejects a NaN budget before solving.
		return Plan{}, optimize.ErrNaNBudget
	case budget >= bf.unconstrained.MachineTime:
		return bf.unconstrained, nil
	case bf.pinned == 0 && budget < bf.options[0].MachineTime:
		// A pinned rejection keeps the solver's "need X, have Y" detail
		// (Fit's), best-of-three reports the bare sentinel.
		return Plan{}, optimize.ErrBudgetTooSmall
	}
	k, err := optimize.Fit(bf.options, budget)
	if err != nil {
		return Plan{}, err
	}
	return bf.plan(k), nil
}

// Unconstrained returns the cell's best unconstrained plan —
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
// gains utility, and writes each job's plan. A lone job whose optimum costs
// more than pool ends at PlanWithinBudget(pool)'s plan; the server walks a
// lone job only then.
func (fw *FrontierWalk) Spend(pool float64) {
	fw.walk.Spend(pool)
	for i, bf := range fw.fs {
		*fw.plans[i] = bf.plan(fw.walk.Index(i))
	}
}
