package chronos

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// budgetSweep builds the budgets that matter for one cell: zero, tiny,
// huge, NaN, and values bracketing every machine time the solver can
// return, so the sweep crosses each affordability threshold.
func budgetSweep(un Plan) []float64 {
	mt := un.MachineTime
	return []float64{
		math.NaN(), 0, 1e-9, mt * 0.1, mt * 0.5, mt * 0.9, mt * 0.99,
		mt, mt * 1.01, mt * 2, math.Inf(1), 1e18,
	}
}

func checkFrontierAgainst(t *testing.T, bf *BudgetFrontier, budget float64,
	refPlan Plan, refErr error) {
	t.Helper()
	gotPlan, gotErr := bf.PlanWithinBudget(budget)
	if (refErr == nil) != (gotErr == nil) {
		t.Fatalf("budget %v: error disagreement: optimizer %v, frontier %v", budget, refErr, gotErr)
	}
	if refErr != nil {
		if refErr.Error() != gotErr.Error() {
			t.Fatalf("budget %v: error text differs:\noptimizer: %v\nfrontier:  %v", budget, refErr, gotErr)
		}
		return
	}
	if !reflect.DeepEqual(refPlan, gotPlan) {
		t.Fatalf("budget %v: plan differs:\noptimizer: %+v\nfrontier:  %+v", budget, refPlan, gotPlan)
	}
}

func TestBudgetFrontierMatchesOptimizeWithinBudget(t *testing.T) {
	p := apiParams()
	e := apiEcon()
	for _, s := range ChronosStrategies() {
		bf, err := NewBudgetFrontier(s, p, e)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		un, err := Optimize(s, p, e)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range budgetSweep(un) {
			refPlan, refErr := OptimizeWithinBudget(s, p, e, budget)
			checkFrontierAgainst(t, bf, budget, refPlan, refErr)
		}
	}
}

func TestBudgetFrontierBestMatchesOptimizeBestWithinBudget(t *testing.T) {
	p := apiParams()
	e := apiEcon()
	bf, err := NewBudgetFrontierBest(p, e)
	if err != nil {
		t.Fatal(err)
	}
	un, err := OptimizeBest(p, e)
	if err != nil {
		t.Fatal(err)
	}
	if got := bf.Unconstrained(); !reflect.DeepEqual(un, got) {
		t.Fatalf("Unconstrained differs: optimizer %+v, frontier %+v", un, got)
	}
	for _, budget := range budgetSweep(un) {
		refPlan, refErr := OptimizeBestWithinBudget(p, e, budget)
		checkFrontierAgainst(t, bf, budget, refPlan, refErr)
	}
}

// TestBudgetFrontierRandomCells sweeps random parameter cells, including
// ones with a binding RMin (a real infeasible prefix to bisect) and jobs
// whose frontiers differ per strategy.
func TestBudgetFrontierRandomCells(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cells := 0
	for i := 0; i < 60; i++ {
		p := JobParams{
			Tasks:    1 + rng.Intn(50),
			Deadline: 20 + rng.Float64()*400,
			TMin:     1 + rng.Float64()*15,
			Beta:     1.05 + rng.Float64()*2,
			TauEst:   rng.Float64() * 60,
			TauKill:  rng.Float64() * 90,
			PhiEst:   rng.Float64() * 0.8,
		}
		e := Econ{
			Theta:     math.Pow(10, -5+3*rng.Float64()),
			UnitPrice: 0.1 + rng.Float64()*5,
			RMin:      []float64{0, 0.5, 0.9, 0.99}[rng.Intn(4)],
		}
		bf, err := NewBudgetFrontierBest(p, e)
		if err != nil {
			// The optimizer must agree the cell is infeasible at any finite
			// budget — the frontier only fails on budget-independent
			// grounds.
			if _, refErr := OptimizeBestWithinBudget(p, e, 1e18); refErr == nil {
				t.Fatalf("cell %d: frontier build failed (%v) but optimizer succeeded", i, err)
			}
			continue
		}
		cells++
		un := bf.Unconstrained()
		for _, budget := range budgetSweep(un) {
			refPlan, refErr := OptimizeBestWithinBudget(p, e, budget)
			checkFrontierAgainst(t, bf, budget, refPlan, refErr)
		}
	}
	if cells < 20 {
		t.Fatalf("only %d feasible random cells — sweep too weak", cells)
	}
}

func TestBudgetFrontierInfeasibleStrategy(t *testing.T) {
	// Mantri is not analytically optimizable; a pinned frontier must report
	// the same error the optimizer does.
	if _, err := NewBudgetFrontier(Mantri, apiParams(), apiEcon()); err == nil {
		t.Fatal("NewBudgetFrontier(Mantri) succeeded")
	}
	// An unreachable RMin makes every strategy infeasible.
	e := apiEcon()
	e.RMin = 0.999999999999
	p := apiParams()
	p.Deadline = 10.5
	p.TMin = 10
	if _, err := NewBudgetFrontierBest(p, e); err != nil {
		if _, refErr := OptimizeBestWithinBudget(p, e, 1e18); refErr == nil {
			t.Fatalf("frontier build failed (%v) but optimizer succeeded", err)
		}
	}
}

// TestBudgetFrontierSolveZeroAlloc: a warm-table capped solve performs no
// allocation (errors on the rejection path may allocate; admits must not).
func TestBudgetFrontierSolveZeroAlloc(t *testing.T) {
	bf, err := NewBudgetFrontierBest(apiParams(), apiEcon())
	if err != nil {
		t.Fatal(err)
	}
	budget := bf.Unconstrained().MachineTime * 0.6
	if _, err := bf.PlanWithinBudget(budget); err != nil {
		t.Skipf("cell has no affordable squeeze at %v: %v", budget, err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := bf.PlanWithinBudget(budget); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("warm capped solve allocates %.1f times per op", avg)
	}
}
