package optimize

import (
	"errors"
	"math"
	"testing"

	"chronos/internal/analysis"
	"chronos/internal/pareto"
)

func batchJob(n int, deadline float64, s analysis.Strategy) BatchJob {
	return BatchJob{
		Model: analysis.NewModel(s, analysis.Params{
			N:        n,
			Deadline: deadline,
			Task:     pareto.MustNew(10, 1.5),
			TauEst:   0.2 * deadline,
			TauKill:  0.4 * deadline,
		}),
	}
}

func TestBatchSolveRespectsBudget(t *testing.T) {
	jobs := []BatchJob{
		batchJob(10, 100, analysis.StrategyClone),
		batchJob(20, 80, analysis.StrategyResume),
		batchJob(5, 150, analysis.StrategyRestart),
	}
	var base float64
	for _, j := range jobs {
		base += j.Model.MachineTime(0)
	}
	budget := base * 1.5
	results, err := BatchSolve(jobs, budget)
	if err != nil {
		t.Fatal(err)
	}
	var spent float64
	for i, r := range results {
		if r.R < 0 {
			t.Errorf("job %d got r=%d", i, r.R)
		}
		spent += r.MachineTime
	}
	if spent > budget+1e-6 {
		t.Errorf("allocation spends %v over budget %v", spent, budget)
	}
	// Some budget must actually be used for speculation.
	allocated := 0
	for _, r := range results {
		allocated += r.R
	}
	if allocated == 0 {
		t.Error("no speculation allocated despite 50% headroom")
	}
}

func TestBatchSolveErrors(t *testing.T) {
	if _, err := BatchSolve(nil, 100); err == nil {
		t.Error("empty batch accepted")
	}
	jobs := []BatchJob{batchJob(10, 100, analysis.StrategyClone)}
	if _, err := BatchSolve(jobs, 1); !errors.Is(err, ErrBudgetTooSmall) {
		t.Errorf("tiny budget err = %v, want ErrBudgetTooSmall", err)
	}
	bad := []BatchJob{{Model: analysis.NewModel(analysis.StrategyClone, analysis.Params{})}}
	if _, err := BatchSolve(bad, 100); err == nil {
		t.Error("invalid job params accepted")
	}
}

func TestBatchSolvePrioritizesTightJobs(t *testing.T) {
	// A deadline-critical job and a slack one: with limited budget the
	// critical job must receive at least as many extra attempts.
	tight := batchJob(10, 40, analysis.StrategyClone)
	slack := batchJob(10, 4000, analysis.StrategyClone)
	base := tight.Model.MachineTime(0) + slack.Model.MachineTime(0)
	results, err := BatchSolve([]BatchJob{tight, slack}, base*1.2)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].R < results[1].R {
		t.Errorf("tight job got r=%d, slack job r=%d", results[0].R, results[1].R)
	}
}

// TestBatchSolveNearBruteForce compares the greedy allocation against
// exhaustive search on a small two-job instance over a grid of budgets.
func TestBatchSolveNearBruteForce(t *testing.T) {
	jobs := []BatchJob{
		batchJob(10, 100, analysis.StrategyClone),
		batchJob(15, 90, analysis.StrategyClone),
	}
	base := jobs[0].Model.MachineTime(0) + jobs[1].Model.MachineTime(0)
	for _, factor := range []float64{1.1, 1.5, 2, 3} {
		budget := base * factor
		got, err := BatchSolve(jobs, budget)
		if err != nil {
			t.Fatal(err)
		}
		gotU := got[0].Utility + got[1].Utility

		// Brute force over r pairs.
		bestU := math.Inf(-1)
		for r0 := 0; r0 <= 12; r0++ {
			for r1 := 0; r1 <= 12; r1++ {
				cost := jobs[0].Model.MachineTime(r0) + jobs[1].Model.MachineTime(r1)
				if cost > budget {
					continue
				}
				u := math.Log10(jobs[0].Model.PoCD(r0)) + math.Log10(jobs[1].Model.PoCD(r1))
				if u > bestU {
					bestU = u
				}
			}
		}
		// Greedy on (possibly non-concave below Gamma) instances: within a
		// small optimality gap.
		if gotU < bestU-0.02 {
			t.Errorf("budget %.0f: greedy utility %v, brute force %v", budget, gotU, bestU)
		}
	}
}

func TestBatchSolveInfeasibleRMin(t *testing.T) {
	j := batchJob(10, 100, analysis.StrategyClone)
	j.RMin = 0.999999999 // essentially unreachable
	results, err := BatchSolve([]BatchJob{j}, j.Model.MachineTime(0)*10)
	if err != nil {
		t.Fatal(err)
	}
	// The job stays infeasible; its utility is -Inf but the solver
	// terminates.
	if !math.IsInf(results[0].Utility, -1) && results[0].PoCD <= j.RMin {
		t.Errorf("utility %v with PoCD %v <= RMin", results[0].Utility, results[0].PoCD)
	}
}
