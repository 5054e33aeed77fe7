package optimize_test

import (
	"errors"
	"testing"

	"chronos"
	"chronos/internal/analysis"
	"chronos/internal/optimize"
	"chronos/internal/pareto"
)

// The best-of-three rule is chronos.OptimizeBest's; this package used to
// carry a second one (SolveAll/Best) with different error rules. These two
// tests stayed with the solver's suite when it went, as an external test
// package so they can import the root: what OptimizeBest returns must be one
// of SolveStrategy's per-strategy optima, bit for bit, and the best of them.

func bestOfCell() (chronos.JobParams, analysis.Params) {
	job := chronos.JobParams{Tasks: 10, Deadline: 100, TMin: 10, Beta: 1.5, TauEst: 30, TauKill: 60}
	return job, analysis.Params{
		N: job.Tasks, Deadline: job.Deadline, Task: pareto.MustNew(job.TMin, job.Beta),
		TauEst: job.TauEst, TauKill: job.TauKill,
	}
}

func TestSolveAllAndBest(t *testing.T) {
	job, p := bestOfCell()
	cfg := optimize.Config{Theta: 1e-4, UnitPrice: 1}
	best, err := chronos.OptimizeBest(job, chronos.Econ(cfg))
	if err != nil {
		t.Fatalf("OptimizeBest: %v", err)
	}
	matched := false
	for _, s := range analysis.Strategies() {
		res, err := optimize.SolveStrategy(s, p, cfg)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.Utility > best.Utility {
			t.Errorf("OptimizeBest (%v, U=%v) is not the max (%v has U=%v)",
				best.Strategy, best.Utility, res.Strategy, res.Utility)
		}
		if res.Strategy == best.Strategy.String() {
			matched = res.R == best.R && res.Utility == best.Utility && res.PoCD == best.PoCD &&
				res.MachineTime == best.MachineTime && res.Cost == best.Cost
		}
	}
	if !matched {
		t.Errorf("OptimizeBest = %+v is not SolveStrategy's result for %v", best, best.Strategy)
	}
}

func TestBestInfeasible(t *testing.T) {
	job, _ := bestOfCell()
	job.Deadline, job.TauEst, job.TauKill = 10.2, 3, 6
	econ := chronos.Econ{Theta: 1e-4, UnitPrice: 1, RMin: 0.9999999}
	if _, err := chronos.OptimizeBest(job, econ); !errors.Is(err, optimize.ErrInfeasible) {
		t.Errorf("OptimizeBest on infeasible problem: err = %v, want ErrInfeasible", err)
	}
	// Unlike the deleted Best, which reported every failure as infeasible, a
	// hard error is returned as itself.
	econ.Theta = 0
	if _, err := chronos.OptimizeBest(job, econ); !errors.Is(err, optimize.ErrBadTheta) {
		t.Errorf("OptimizeBest with theta=0: err = %v, want ErrBadTheta", err)
	}
}
