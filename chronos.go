// Package chronos is a Go implementation of "Chronos: A Unifying
// Optimization Framework for Speculative Execution of Deadline-critical
// MapReduce Jobs" (Xu, Alamro, Lan, Subramaniam — ICDCS 2018).
//
// Chronos mitigates straggler tasks in deadline-critical MapReduce jobs by
// launching speculative or clone task attempts, and — unlike Mantri or
// default Hadoop speculation — chooses how many attempts to launch by
// solving a joint optimization of the Probability of Completion before
// Deadline (PoCD) against the machine-time cost of the extra attempts.
//
// The package exposes three layers:
//
//   - Analytics: closed-form PoCD and expected machine time for the Clone,
//     Speculative-Restart, and Speculative-Resume strategies under Pareto
//     task times (Theorems 1-6 of the paper), via PoCD and ExpectedMachineTime.
//   - Optimization: the net-utility maximization U(r) = log10(R(r)-Rmin) -
//     theta*C*E(T) solved exactly by Algorithm 1, via Optimize, OptimizeBest,
//     MinCostForPoCD, and TradeoffCurve.
//   - Simulation: a discrete-event MapReduce cluster that executes job
//     streams under any of the six strategies (the three Chronos strategies
//     plus the paper's Hadoop-NS, Hadoop-S and Mantri baselines), via
//     Simulate, Benchmarks, and SyntheticTrace.
package chronos

import (
	"errors"
	"fmt"

	"chronos/internal/analysis"
	"chronos/internal/optimize"
	"chronos/internal/pareto"
)

// Strategy selects a speculation policy.
type Strategy int

// The six policies: three Chronos strategies and three baselines.
const (
	// Clone proactively launches r+1 attempts of every task at submission.
	Clone Strategy = iota + 1
	// SpeculativeRestart launches r from-scratch attempts for each detected
	// straggler at tauEst.
	SpeculativeRestart
	// SpeculativeResume kills each detected straggler and launches r+1
	// attempts resuming from the last processed byte offset.
	SpeculativeResume
	// HadoopNS is default Hadoop without speculation.
	HadoopNS
	// HadoopS is default Hadoop speculation.
	HadoopS
	// Mantri is the OSDI'10 outlier-mitigation baseline.
	Mantri
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Clone:
		return "Clone"
	case SpeculativeRestart:
		return "Speculative-Restart"
	case SpeculativeResume:
		return "Speculative-Resume"
	case HadoopNS:
		return "Hadoop-NS"
	case HadoopS:
		return "Hadoop-S"
	case Mantri:
		return "Mantri"
	default:
		return "Unknown"
	}
}

// ChronosStrategies returns the three analytically optimizable strategies.
func ChronosStrategies() []Strategy {
	return []Strategy{Clone, SpeculativeRestart, SpeculativeResume}
}

// ErrNotAnalytic reports a strategy without closed-form PoCD/cost models
// (the baselines are simulation-only).
var ErrNotAnalytic = errors.New("chronos: strategy has no closed-form model; use Simulate")

// JobParams describes one job for the analytic layer: N parallel tasks with
// i.i.d. Pareto(TMin, Beta) attempt execution times and a deadline D.
type JobParams struct {
	// Tasks is the number of parallel tasks N.
	Tasks int `json:"tasks"`
	// Deadline is D, in seconds from job start.
	Deadline float64 `json:"deadline"`
	// TMin and Beta are the Pareto scale and tail index of a single
	// attempt's execution time. Beta must exceed 1 (finite mean).
	TMin float64 `json:"tmin"`
	Beta float64 `json:"beta"`
	// TauEst is the straggler-detection instant (ignored by Clone).
	TauEst float64 `json:"tauEst"`
	// TauKill is the attempt-pruning instant.
	TauKill float64 `json:"tauKill"`
	// PhiEst is the expected progress of a straggler at TauEst; zero means
	// "derive from the model" (see analysis.Params.DefaultPhiEst).
	PhiEst float64 `json:"phiEst,omitempty"`
}

// Econ carries the economic parameters of the joint optimization.
type Econ struct {
	// Theta is the PoCD/cost tradeoff factor (>0).
	Theta float64 `json:"theta"`
	// UnitPrice is the VM price C per unit machine time (>0).
	UnitPrice float64 `json:"unitPrice"`
	// RMin is the minimum acceptable PoCD; utility is -Inf below it.
	RMin float64 `json:"rmin,omitempty"`
}

// Plan is an optimized speculation configuration.
type Plan struct {
	// Strategy is the planned policy.
	Strategy Strategy `json:"strategy"`
	// R is the optimal number of extra attempts.
	R int `json:"r"`
	// PoCD, MachineTime, Cost and Utility evaluate the plan.
	PoCD        float64 `json:"pocd"`
	MachineTime float64 `json:"machineTime"`
	Cost        float64 `json:"cost"`
	Utility     float64 `json:"utility"`
}

// TradeoffPoint is one sample of the PoCD/cost frontier.
type TradeoffPoint struct {
	R           int     `json:"r"`
	PoCD        float64 `json:"pocd"`
	MachineTime float64 `json:"machineTime"`
	Cost        float64 `json:"cost"`
	Utility     float64 `json:"utility"`
}

// toAnalysis converts the public params to the internal model, validating.
func (p JobParams) toAnalysis() (analysis.Params, error) {
	dist, err := pareto.New(p.TMin, p.Beta)
	if err != nil {
		return analysis.Params{}, err
	}
	ap := analysis.Params{
		N:        p.Tasks,
		Deadline: p.Deadline,
		Task:     dist,
		TauEst:   p.TauEst,
		TauKill:  p.TauKill,
		PhiEst:   p.PhiEst,
	}
	if err := ap.Validate(); err != nil {
		return analysis.Params{}, err
	}
	return ap, nil
}

// analyticKind resolves a Chronos strategy to its closed forms:
// ErrNotAnalytic for a baseline.
func analyticKind(s Strategy) (analysis.Strategy, error) {
	switch s {
	case Clone:
		return analysis.StrategyClone, nil
	case SpeculativeRestart:
		return analysis.StrategyRestart, nil
	case SpeculativeResume:
		return analysis.StrategyResume, nil
	default:
		return 0, fmt.Errorf("%w: %v", ErrNotAnalytic, s)
	}
}

// analytic resolves a public (strategy, job) pair to the closed forms'
// inputs: ErrNotAnalytic for a baseline, else the job's validation error.
func analytic(s Strategy, p JobParams) (analysis.Strategy, analysis.Params, error) {
	kind, err := analyticKind(s)
	if err != nil {
		return 0, analysis.Params{}, err
	}
	ap, err := p.toAnalysis()
	return kind, ap, err
}

// bindAt binds ev to the closed forms of (s, p) for a probe at r.
func bindAt(ev *analysis.Evaluator, s Strategy, p JobParams, r int) error {
	kind, ap, err := analytic(s, p)
	if err != nil {
		return err
	}
	if r < 0 {
		return fmt.Errorf("chronos: negative r %d", r)
	}
	ev.Reset(kind, ap)
	return nil
}

// PoCD returns the closed-form probability that the job completes before
// its deadline when the strategy uses r extra attempts (Theorems 1, 3, 5).
func PoCD(s Strategy, p JobParams, r int) (float64, error) {
	var ev analysis.Evaluator
	if err := bindAt(&ev, s, p, r); err != nil {
		return 0, err
	}
	return ev.PoCD(r), nil
}

// ExpectedMachineTime returns the closed-form expected total machine
// running time of the job (Theorems 2, 4, 6).
func ExpectedMachineTime(s Strategy, p JobParams, r int) (float64, error) {
	var ev analysis.Evaluator
	if err := bindAt(&ev, s, p, r); err != nil {
		return 0, err
	}
	return ev.MachineTime(r), nil
}

// Optimize solves the joint PoCD/cost optimization (Algorithm 1) for one
// strategy and returns the globally optimal plan.
func Optimize(s Strategy, p JobParams, e Econ) (Plan, error) {
	kind, ap, err := analytic(s, p)
	if err != nil {
		return Plan{}, err
	}
	res, err := optimize.SolveStrategy(kind, ap, optimize.Config(e))
	return planOf(s, res, err)
}

// bestOf asks solve for each Chronos strategy's plan, passing the strategy
// and its index in ChronosStrategies, and returns the one of highest
// utility; on a tie the earlier strategy in ChronosStrategies order stays. A
// strategy that is infeasible at any budget (ErrInfeasible) or merely
// unaffordable (ErrBudgetTooSmall) is skipped, any other error is returned
// at once. When every strategy was skipped the bare sentinel is returned:
// ErrBudgetTooSmall if a bigger budget would have admitted one of them,
// ErrInfeasible otherwise.
func bestOf(solve func(i int, s Strategy) (Plan, error)) (Plan, error) {
	var best Plan
	found, sawBudget := false, false
	for i, s := range ChronosStrategies() {
		plan, err := solve(i, s)
		switch {
		case errors.Is(err, optimize.ErrBudgetTooSmall):
			sawBudget = true
		case errors.Is(err, optimize.ErrInfeasible):
		case err != nil:
			return Plan{}, err
		case !found || plan.Utility > best.Utility:
			best, found = plan, true
		}
	}
	switch {
	case found:
		return best, nil
	case sawBudget:
		return Plan{}, optimize.ErrBudgetTooSmall
	}
	return Plan{}, optimize.ErrInfeasible
}

// OptimizeBest optimizes all three Chronos strategies and returns the one
// with the highest net utility. The three solves share one pass over the
// job (optimize.SolveStrategies); each plan is bit for bit Optimize's.
func OptimizeBest(p JobParams, e Econ) (Plan, error) {
	ap, err := p.toAnalysis()
	if err != nil {
		return Plan{}, err
	}
	var kinds [3]analysis.Strategy
	for i, s := range ChronosStrategies() {
		if kinds[i], err = analyticKind(s); err != nil {
			return Plan{}, err
		}
	}
	var res [len(kinds)]optimize.Result
	var errs [len(kinds)]error
	optimize.SolveStrategies(kinds[:], ap, optimize.Config(e), res[:], errs[:])
	return bestOf(func(i int, s Strategy) (Plan, error) { return planOf(s, res[i], errs[i]) })
}

// OptimizeWithinBudget solves the joint optimization for one strategy
// subject to an expected-machine-time cap — the admission-control form of
// Algorithm 1, where an arriving job may only spend what its tenant's
// ledger still holds. Returns ErrInfeasible when no r reaches PoCD above
// RMin regardless of budget, and ErrBudgetTooSmall (both from the optimize
// package) when feasible plans exist but none fits the budget.
func OptimizeWithinBudget(s Strategy, p JobParams, e Econ, budget float64) (Plan, error) {
	kind, ap, err := analytic(s, p)
	if err != nil {
		return Plan{}, err
	}
	res, err := optimize.SolveCapped(kind, ap, optimize.Config(e), budget)
	return planOf(s, res, err)
}

// OptimizeBestWithinBudget runs OptimizeWithinBudget for all three Chronos
// strategies and returns the affordable plan with the highest net utility.
// When every strategy fails, ErrBudgetTooSmall is preferred over
// ErrInfeasible if any strategy was merely unaffordable (a bigger budget
// would have admitted it).
func OptimizeBestWithinBudget(p JobParams, e Econ, budget float64) (Plan, error) {
	return bestOf(func(_ int, s Strategy) (Plan, error) { return OptimizeWithinBudget(s, p, e, budget) })
}

// MinCostForPoCD returns the cheapest plan for the strategy that reaches
// the PoCD target — the "budget for a desired SLA" direction of the
// tradeoff.
func MinCostForPoCD(s Strategy, p JobParams, e Econ, target float64) (Plan, error) {
	kind, ap, err := analytic(s, p)
	if err != nil {
		return Plan{}, err
	}
	res, err := optimize.MinCostForPoCD(kind, ap, optimize.Config(e), target)
	return planOf(s, res, err)
}

// TradeoffCurve samples the PoCD/cost frontier for r = 0..maxR.
func TradeoffCurve(s Strategy, p JobParams, e Econ, maxR int) ([]TradeoffPoint, error) {
	kind, ap, err := analytic(s, p)
	if err != nil {
		return nil, err
	}
	if maxR < 0 {
		return nil, fmt.Errorf("chronos: negative maxR %d", maxR)
	}
	pts := optimize.Curve(kind, ap, optimize.Config(e), maxR)
	out := make([]TradeoffPoint, len(pts))
	for i, pt := range pts {
		out[i] = TradeoffPoint(pt)
	}
	return out, nil
}

// planOf is the public view of a solver's answer.
func planOf(s Strategy, res optimize.Result, err error) (Plan, error) {
	if err != nil {
		return Plan{}, err
	}
	return Plan{
		Strategy:    s,
		R:           res.R,
		PoCD:        res.PoCD,
		MachineTime: res.MachineTime,
		Cost:        res.Cost,
		Utility:     res.Utility,
	}, nil
}

// DeadlineQuantile returns the tightest deadline the strategy can promise
// with probability target using r extra attempts — the SLA-quoting
// direction of the model ("what D can I sign at the 99.9th percentile?").
func DeadlineQuantile(s Strategy, p JobParams, r int, target float64) (float64, error) {
	kind, ap, err := analytic(s, p)
	if err != nil {
		return 0, err
	}
	return analysis.DeadlineForPoCD(kind, ap, r, target), nil
}

// BatchJob pairs a job with its strategy for shared-budget planning.
type BatchJob struct {
	// Strategy must be one of the three Chronos strategies.
	Strategy Strategy `json:"strategy"`
	// Params describes the job.
	Params JobParams `json:"params"`
	// RMin is the job's minimum acceptable PoCD.
	RMin float64 `json:"rmin,omitempty"`
}

// BatchPlan is the allocation for one batch job.
type BatchPlan struct {
	// R is the number of extra attempts granted to the job.
	R int `json:"r"`
	// PoCD and MachineTime evaluate the grant.
	PoCD        float64 `json:"pocd"`
	MachineTime float64 `json:"machineTime"`
}

// PlanBatch allocates a shared machine-time budget across M concurrent jobs
// (the paper's multi-job setting, Section III). Each job's options are the
// plans some budget can pick; the allocator walks their upper concave hulls,
// always taking the affordable move that buys the most log-PoCD per
// machine-second, and lifts a job below its RMin straight to its cheapest
// feasible plan. Each job starts at its cheapest feasible plan, or at r = 0
// when that costs less. Returns ErrBudgetTooSmall (from the optimize package)
// when the budget cannot cover those starting plans, and ErrBadRMin when a
// job's RMin is outside [0, 1).
func PlanBatch(jobs []BatchJob, budget float64) ([]BatchPlan, error) {
	batch := make([]optimize.BatchJob, len(jobs))
	for i, j := range jobs {
		kind, ap, err := analytic(j.Strategy, j.Params)
		if err != nil {
			return nil, err
		}
		batch[i] = optimize.BatchJob{Model: analysis.NewModel(kind, ap), RMin: j.RMin}
	}
	results, err := optimize.BatchSolve(batch, budget)
	if err != nil {
		return nil, err
	}
	out := make([]BatchPlan, len(results))
	for i, r := range results {
		out[i] = BatchPlan{R: r.R, PoCD: r.PoCD, MachineTime: r.MachineTime}
	}
	return out, nil
}
