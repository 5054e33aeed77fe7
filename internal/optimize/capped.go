package optimize

import (
	"fmt"
	"math"

	"chronos/internal/analysis"
)

// cappedScanMargin extends the feasibility scan past the unconstrained
// optimum. Expected machine time is monotone in r for Clone but can dip for
// the reactive strategies (straggler truncation), so an affordable plan may
// sit slightly above the unconstrained argmax; PoCD saturates geometrically,
// so a bounded margin covers every non-degenerate dip.
const cappedScanMargin = 64

// cappedScanCap bounds the scan width above the feasibility frontier
// against degenerate inputs whose unconstrained optimum lands near
// searchCap. Machine time grows with r past the frontier in every
// non-degenerate model, so affordable plans concentrate at the window's
// low end.
const cappedScanCap = 4096

// SolveCapped maximizes U(r) subject to an expected-machine-time budget:
//
//	maximize   U(r) = log10(R(r) - Rmin) - theta*C*E[T](r)
//	subject to E[T](r) <= budget,  r >= 0 integer.
//
// This is the admission-control form of Algorithm 1: an online scheduler
// holds a finite machine-time ledger per tenant, and an arriving job may
// only be admitted with a plan it can pay for. When even the unconstrained
// optimum fits the budget it is returned unchanged; otherwise the integers
// around and below it are scanned for the best affordable plan.
//
// Errors distinguish the two rejection reasons an admission controller
// reports upstream: ErrInfeasible when no r reaches PoCD > RMin regardless
// of budget, and ErrBudgetTooSmall when feasible plans exist but none is
// affordable.
func SolveCapped(m analysis.Model, cfg Config, budget float64) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := m.Params().Validate(); err != nil {
		return Result{}, err
	}
	mm, pooled := acquire(m)
	if pooled {
		defer mm.release()
	}
	return solveCappedMemoized(mm, cfg, budget)
}

// SolveCappedStrategy is SolveCapped for a (strategy, params) pair through a
// pooled recurrence kernel, the allocation-free form the server's admission
// path uses.
func SolveCappedStrategy(s analysis.Strategy, p analysis.Params, cfg Config, budget float64) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	mm := acquireStrategy(s, p)
	defer mm.release()
	return solveCappedMemoized(mm, cfg, budget)
}

// solveCappedMemoized is SolveCapped after validation and memoization.
func solveCappedMemoized(m *memoModel, cfg Config, budget float64) (Result, error) {
	if math.IsNaN(budget) {
		return Result{}, fmt.Errorf("optimize: budget is NaN")
	}
	un, err := solveMemoized(m, cfg)
	if err != nil {
		return Result{}, err // ErrInfeasible: no budget can fix it
	}
	if un.MachineTime <= budget {
		return un, nil
	}

	// The unconstrained optimum is unaffordable; scan for the best feasible
	// plan. PoCD is nondecreasing in r, so the feasible region (PoCD >
	// RMin) is [rFeas, inf): bisect its frontier — un.R is known feasible —
	// and anchor the scan there, so a wide infeasible prefix (large Gamma)
	// cannot push the cheapest feasible plans past the scan cap.
	// Memoization makes the revisited r values slice hits.
	rFeas, hi := cappedScanWindow(m, cfg, un.R)
	best := Result{R: -1, Utility: math.Inf(-1)}
	cheapest := math.Inf(1)
	for r := rFeas; r <= hi; r++ {
		_, mt, u := m.scanProbe(cfg, r)
		if !math.IsInf(u, -1) && mt < cheapest {
			cheapest = mt
		}
		if mt > budget {
			continue
		}
		if u > best.Utility {
			best = Result{
				Strategy:    m.Name(),
				R:           r,
				Utility:     u,
				PoCD:        m.PoCD(r),
				MachineTime: mt,
				Cost:        cfg.UnitPrice * mt,
			}
		}
	}
	if best.R < 0 || math.IsInf(best.Utility, -1) {
		return Result{}, fmt.Errorf("%w: need %v, have %v", ErrBudgetTooSmall, cheapest, budget)
	}
	return best, nil
}

// cappedScanWindow derives the [rFeas, hi] scan range shared by SolveCapped
// and Frontier construction: bisect the feasibility frontier anchored at the
// known-feasible unconstrained optimum unR, then cap the width.
func cappedScanWindow(m *memoModel, cfg Config, unR int) (rFeas, hi int) {
	if math.IsInf(cfg.Utility(m, 0), -1) {
		lo, hiF := 0, unR // invariant: lo infeasible, hiF feasible
		for hiF-lo > 1 {
			mid := lo + (hiF-lo)/2
			if math.IsInf(cfg.Utility(m, mid), -1) {
				lo = mid
			} else {
				hiF = mid
			}
		}
		rFeas = hiF
	}
	hi = min(unR+cappedScanMargin, rFeas+cappedScanCap, searchCap-1)
	return rFeas, hi
}
