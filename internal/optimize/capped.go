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
// so a bounded margin covers every non-degenerate dip. A cell's Options
// keep only the window's undominated points, and a dip cannot cost them an
// answer: each point is judged against every point that costs no more,
// whatever its r, never against its neighbour in r.
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
// around and below it are scanned for the best affordable plan. Like
// SolveStrategy it runs on a pooled recurrence kernel and does not allocate.
//
// Errors distinguish the two rejection reasons an admission controller
// reports upstream: ErrInfeasible when no r reaches PoCD > RMin regardless
// of budget, and ErrBudgetTooSmall when feasible plans exist but none is
// affordable.
func SolveCapped(s analysis.Strategy, p analysis.Params, cfg Config, budget float64) (Result, error) {
	if err := validate(cfg, p); err != nil {
		return Result{}, err
	}
	if math.IsNaN(budget) {
		return Result{}, ErrNaNBudget
	}
	mm := acquireStrategy(s, p)
	defer mm.release()
	un, err := mm.solve(cfg)
	if err != nil || un.MachineTime <= budget {
		return un, err // no budget fixes ErrInfeasible; a fitting optimum needs no scan
	}
	window := mm.scanWindow(cfg, un.R)
	return within(un.Strategy, window, budget)
}

// scanWindow evaluates the capped scan's candidates around the
// known-feasible unconstrained optimum unR, into the memo's scratch slice.
// PoCD is nondecreasing in r, so the feasible region (PoCD > RMin) is
// [rFeas, inf): bisect its frontier and anchor the window there, so a wide
// infeasible prefix (large Gamma) cannot push the cheapest feasible plans
// past the scan cap. Memoization makes the revisited r values slice hits.
func (m *memoModel) scanWindow(cfg Config, unR int) []Point {
	rFeas := 0
	if math.IsInf(m.utility(cfg, 0), -1) {
		lo, hi := 0, unR // invariant: lo infeasible, hi feasible
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if math.IsInf(m.utility(cfg, mid), -1) {
				lo = mid
			} else {
				hi = mid
			}
		}
		rFeas = hi
	}
	m.window = m.window[:0]
	for r, hi := rFeas, min(unR+cappedScanMargin, rFeas+cappedScanCap, searchCap-1); r <= hi; r++ {
		m.window = append(m.window, m.pointAt(cfg, r))
	}
	return m.window
}

// within answers a capped solve whose unconstrained optimum does not fit:
// the affordable point of highest utility; on an exact tie the lower machine
// time, then the lower r, as points come in r order. The rejection names the
// cheapest feasible point's machine time, which the same pass finds: what
// the budget would have had to be. A window and its Options share that
// point, so a cached frontier rejects with the same text.
func within(strategy string, points []Point, budget float64) (Result, error) {
	best, cheapest := Point{R: -1, Utility: math.Inf(-1)}, math.Inf(1)
	for i := range points { // by index: ranging by value copies all five fields per point
		p := &points[i]
		if !math.IsInf(p.Utility, -1) && p.MachineTime < cheapest {
			cheapest = p.MachineTime
		}
		if p.MachineTime <= budget && (p.Utility > best.Utility ||
			p.Utility == best.Utility && p.MachineTime < best.MachineTime) {
			best = *p
		}
	}
	if best.R < 0 {
		return Result{}, &budgetError{need: cheapest, have: budget}
	}
	return best.result(strategy), nil
}

// budgetError is a capped solve's ErrBudgetTooSmall with the budget it would
// have needed. The text is formatted only when it is asked for: a
// best-of-three caller checks errors.Is and drops the rejection of every
// unaffordable strategy, and formatting it was most of a squeezed query.
type budgetError struct{ need, have float64 }

func (e *budgetError) Error() string {
	return fmt.Sprintf("%v: need %v, have %v", ErrBudgetTooSmall, e.need, e.have)
}

func (e *budgetError) Unwrap() error { return ErrBudgetTooSmall }
