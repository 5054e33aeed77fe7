package optimize

import (
	"errors"
	"math"
	"strings"
	"testing"

	"chronos/internal/analysis"
)

// cappedModel is the closed forms of strategy s on testParams; s and its
// Params() are what SolveCapped is called with.
func cappedModel(t *testing.T, s analysis.Strategy) *analysis.Evaluator {
	t.Helper()
	p := testParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return analysis.NewModel(s, p)
}

func TestSolveCappedMatchesSolveWhenBudgetIsLoose(t *testing.T) {
	for _, s := range analysis.Strategies() {
		m := cappedModel(t, s)
		cfg := Config{Theta: 1e-4, UnitPrice: 1}
		un, err := Solve(m, cfg)
		if err != nil {
			t.Fatalf("%v: Solve: %v", s, err)
		}
		got, err := SolveCapped(s, m.Params(), cfg, un.MachineTime*2)
		if err != nil {
			t.Fatalf("%v: SolveCapped: %v", s, err)
		}
		if got != un {
			t.Errorf("%v: loose budget changed the plan: got %+v, want %+v", s, got, un)
		}
	}
}

func TestSolveCappedRespectsBudget(t *testing.T) {
	m := cappedModel(t, analysis.StrategyClone)
	cfg := Config{Theta: 1e-4, UnitPrice: 1}
	un, err := Solve(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if un.R == 0 {
		t.Skip("unconstrained optimum already r=0; cannot squeeze")
	}
	// A budget strictly between r=0 and the optimum's machine time must
	// yield an affordable, lower-r plan.
	budget := (m.MachineTime(0) + un.MachineTime) / 2
	got, err := SolveCapped(analysis.StrategyClone, m.Params(), cfg, budget)
	if err != nil {
		t.Fatal(err)
	}
	if got.MachineTime > budget {
		t.Errorf("plan costs %v, budget %v", got.MachineTime, budget)
	}
	if got.R >= un.R {
		t.Errorf("squeezed plan r=%d should be below unconstrained r=%d", got.R, un.R)
	}
	if got.Utility > un.Utility {
		t.Errorf("constrained utility %v exceeds unconstrained %v", got.Utility, un.Utility)
	}
	// The scan must pick the best affordable r, not just any.
	for r := 0; r <= un.R; r++ {
		if m.MachineTime(r) <= budget && cfg.Utility(m, r) > got.Utility {
			t.Errorf("r=%d is affordable with utility %v > chosen %v",
				r, cfg.Utility(m, r), got.Utility)
		}
	}
}

func TestSolveCappedBudgetTooSmall(t *testing.T) {
	m := cappedModel(t, analysis.StrategyClone)
	cfg := Config{Theta: 1e-4, UnitPrice: 1}
	// Below even the r=0 machine time, nothing is affordable.
	_, err := SolveCapped(analysis.StrategyClone, m.Params(), cfg, m.MachineTime(0)/2)
	if !errors.Is(err, ErrBudgetTooSmall) {
		t.Errorf("err = %v, want ErrBudgetTooSmall", err)
	}
	_, err = SolveCapped(analysis.StrategyClone, m.Params(), cfg, 0)
	if !errors.Is(err, ErrBudgetTooSmall) {
		t.Errorf("zero budget: err = %v, want ErrBudgetTooSmall", err)
	}
}

// TestSolveCappedInfeasiblePrefix anchors the scan at the feasibility
// frontier: with an RMin that rules out small r, the squeezed plan must
// still be found (and satisfy the floor) rather than being rejected
// because the window opened on infeasible territory.
func TestSolveCappedInfeasiblePrefix(t *testing.T) {
	m := cappedModel(t, analysis.StrategyClone)
	cfg := Config{Theta: 1e-4, UnitPrice: 1, RMin: 0.9} // PoCD(0) ~ 0.73: r=0 infeasible
	if !math.IsInf(cfg.Utility(m, 0), -1) {
		t.Fatal("test premise broken: r=0 should be infeasible at RMin 0.9")
	}
	un, err := Solve(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Find the frontier by scan (small here) to size a budget between the
	// cheapest feasible plan and the unconstrained optimum.
	rFeas := 0
	for math.IsInf(cfg.Utility(m, rFeas), -1) {
		rFeas++
	}
	if rFeas >= un.R {
		t.Skip("no room between the frontier and the optimum")
	}
	budget := (m.MachineTime(rFeas) + un.MachineTime) / 2
	got, err := SolveCapped(analysis.StrategyClone, m.Params(), cfg, budget)
	if err != nil {
		t.Fatal(err)
	}
	if got.MachineTime > budget {
		t.Errorf("plan costs %v, budget %v", got.MachineTime, budget)
	}
	if got.PoCD <= cfg.RMin {
		t.Errorf("plan PoCD %v at or below RMin %v", got.PoCD, cfg.RMin)
	}
	// Below the frontier's cost, rejection must name a finite need.
	_, err = SolveCapped(analysis.StrategyClone, m.Params(), cfg, m.MachineTime(rFeas)/2)
	if !errors.Is(err, ErrBudgetTooSmall) {
		t.Fatalf("err = %v, want ErrBudgetTooSmall", err)
	}
	if s := err.Error(); strings.Contains(s, "+Inf") {
		t.Errorf("rejection names an infinite need: %s", s)
	}
}

func TestSolveCappedInfeasibleBeatsBudget(t *testing.T) {
	m := cappedModel(t, analysis.StrategyClone)
	cfg := Config{Theta: 1e-4, UnitPrice: 1, RMin: 1 - 1e-12}
	// RMin unreachable: infeasible no matter the budget.
	_, err := SolveCapped(analysis.StrategyClone, m.Params(), cfg, math.Inf(1))
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}
