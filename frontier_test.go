package chronos

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"chronos/internal/race"
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

// TestBudgetFrontierBestTiesOnlyOnUtility asks a best-of-three frontier and
// OptimizeBestWithinBudget every budget where either answer can change —
// each strategy's tradeoff points and optimum at their machine time and its
// two float neighbours — over random cells, every fourth one a plateau: it
// kills at the instant it detects, under a theta that sinks the price term
// below the last bit of the log term. The two must give the same error text
// or a plan of the same utility, and off the plateaus the same plan. On a
// plateau they may pick different plans of that utility:
// OptimizeBestWithinBudget takes each strategy's own optimum once the budget
// covers it, the frontier only the best-of-three optimum, and Algorithm 1's
// optimum is not always the cheapest of its ties.
func TestBudgetFrontierBestTiesOnlyOnUtility(t *testing.T) {
	n := 40
	if testing.Short() || race.Enabled {
		n = 8
	}
	rng := rand.New(rand.NewSource(54))
	var cells, budgets, differ int
	for i := 0; i < n; i++ {
		tmin := 1 + rng.Float64()*49
		p := JobParams{
			Tasks:    int(math.Exp(rng.Float64() * math.Log(2000))),
			Deadline: tmin * (1.05 + rng.Float64()*10),
			TMin:     tmin,
			Beta:     1.05 + rng.Float64()*2,
			PhiEst:   rng.Float64() * 0.8,
		}
		p.TauEst = rng.Float64() * 0.6 * p.Deadline
		p.TauKill = p.TauEst + rng.Float64()*(p.Deadline-p.TauEst)
		e := Econ{
			Theta:     math.Pow(10, -6+4*rng.Float64()),
			UnitPrice: 0.1 + rng.Float64()*5,
			RMin:      []float64{0, 0.5, 0.9, 0.99}[rng.Intn(4)],
		}
		if i%4 == 3 {
			p.TauKill, e.Theta = p.TauEst, 1e-30
		}
		bf, err := NewBudgetFrontierBest(p, e)
		if err != nil {
			continue
		}
		cells++
		bs := []float64{math.NaN(), 0, math.Inf(1)}
		for _, s := range ChronosStrategies() {
			un, err := Optimize(s, p, e)
			if err != nil {
				continue
			}
			curve, err := TradeoffCurve(s, p, e, un.R+70)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range append(curve, TradeoffPoint{MachineTime: un.MachineTime}) {
				bs = append(bs, math.Nextafter(q.MachineTime, 0), q.MachineTime, math.Nextafter(q.MachineTime, math.Inf(1)))
			}
		}
		for _, b := range bs {
			budgets++
			want, wantErr := OptimizeBestWithinBudget(p, e, b)
			got, gotErr := bf.PlanWithinBudget(b)
			if (wantErr == nil) != (gotErr == nil) || wantErr != nil && wantErr.Error() != gotErr.Error() ||
				got.Utility != want.Utility {
				t.Fatalf("cell %d %+v %+v budget %v: optimizer %+v %v, frontier %+v %v", i, p, e, b, want, wantErr, got, gotErr)
			}
			if got != want {
				if i%4 != 3 {
					t.Fatalf("cell %d %+v %+v budget %v: optimizer %+v, frontier %+v", i, p, e, b, want, got)
				}
				differ++
			}
		}
	}
	if cells < n/2 {
		t.Fatalf("only %d of %d cells feasible — sweep too weak", cells, n)
	}
	t.Logf("%d budgets over %d cells, %d answered on a plateau by a different plan of the same utility", budgets, cells, differ)
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

// TestBudgetFrontierSolveZeroAlloc: a squeezed capped solve from a warm
// frontier performs no allocation (errors on the rejection path may
// allocate; admits must not). The budget is one float below the optimum's
// machine time, so the answer comes from the option list.
func TestBudgetFrontierSolveZeroAlloc(t *testing.T) {
	bf, err := NewBudgetFrontierBest(apiParams(), apiEcon())
	if err != nil {
		t.Fatal(err)
	}
	budget := math.Nextafter(bf.Unconstrained().MachineTime, 0)
	if _, err := bf.PlanWithinBudget(budget); err != nil {
		t.Fatalf("cell has no affordable squeeze at %v: %v", budget, err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := bf.PlanWithinBudget(budget); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("warm capped solve allocates %.1f times per op", avg)
	}
}
