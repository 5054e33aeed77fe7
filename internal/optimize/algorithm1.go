package optimize

import (
	"fmt"
	"math"

	"chronos/internal/analysis"
)

// searchCap bounds every r a solve probes, in either phase, and with it the
// work one request can ask for. Gamma grows like 1/(D - tauEst - tmin), so
// without a bound a valid job a hair inside the degenerate band asks Phase 2
// for millions of closed-form evaluations. Optima cluster near zero (PoCD
// saturates geometrically); a solve whose threshold or peak lies at or past
// the cap fails closed with ErrSearchCap. It is also the memo's capacity.
const searchCap = 1 << 13

// ErrSearchCap reports that Algorithm 1 would have to look at or beyond
// r = searchCap: ceil(Gamma) is that large, or the utility is still rising
// there. No plan is returned, so errors.Is(ErrSearchCap, ErrInfeasible) holds
// and callers that skip an infeasible strategy skip this one too.
var ErrSearchCap error = searchCapError{}

type searchCapError struct{}

func (searchCapError) Error() string {
	return fmt.Sprintf("optimize: optimum not below the search cap r = %d", searchCap)
}

func (searchCapError) Is(target error) bool { return target == ErrInfeasible }

// Result is the outcome of the joint optimization for one strategy.
type Result struct {
	// Strategy names the optimized model.
	Strategy string
	// R is the optimal number of extra attempts.
	R int
	// Utility is U(R).
	Utility float64
	// PoCD and MachineTime are the two tradeoff components at R.
	PoCD        float64
	MachineTime float64
	// Cost is UnitPrice * MachineTime.
	Cost float64
}

// Solve runs Algorithm 1 of the paper for one strategy model: an ascent
// search over the provably concave region r > Gamma (Phase 1) combined with
// an exhaustive scan of the integers 0 <= r < ceil(Gamma) (Phase 2). By
// Theorem 9 the combination returns a global maximizer of U.
func Solve(m analysis.Model, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := m.Params().Validate(); err != nil {
		return Result{}, err
	}
	// The bracketing and binary-search phases revisit r values; cache the
	// closed-form evaluations for the duration of the solve.
	mm, pooled := acquire(m)
	if pooled {
		defer mm.release()
	}
	return solveMemoized(mm, cfg)
}

// SolveStrategy is Solve for a (strategy, params) pair: the model is bound
// directly to a pooled recurrence kernel, so the entire solve performs no
// heap allocation.
func SolveStrategy(s analysis.Strategy, p analysis.Params, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	mm := acquireStrategy(s, p)
	defer mm.release()
	return solveMemoized(mm, cfg)
}

// solveMemoized is Solve after validation and memoization, shared with
// SolveCapped so a constrained solve reuses the same model evaluations.
func solveMemoized(m *memoModel, cfg Config) (Result, error) {
	gamma := m.Gamma()
	start := 0
	if gamma > 0 {
		start = int(math.Min(math.Ceil(gamma), searchCap))
	}

	// Phase 1: U is concave (hence unimodal) on r >= start. Bracket the peak
	// by exponential probing, then binary-search the first difference. The
	// closure does not escape concaveArgmax, so it stays on the stack.
	bestR := concaveArgmax(func(r int) float64 { return cfg.Utility(m, r) }, start, searchCap)
	if bestR < 0 {
		return Result{}, ErrSearchCap
	}
	bestU := cfg.Utility(m, bestR)

	// Phase 2: exhaustive scan below the concavity threshold, riding the
	// kernel's sequential Advance cursor.
	for r := 0; r < start; r++ {
		if _, _, u := m.scanProbe(cfg, r); u > bestU {
			bestU, bestR = u, r
		}
	}

	if math.IsInf(bestU, -1) {
		return Result{}, ErrInfeasible
	}
	mt := m.MachineTime(bestR)
	return Result{
		Strategy:    m.Name(),
		R:           bestR,
		Utility:     bestU,
		PoCD:        m.PoCD(bestR),
		MachineTime: mt,
		Cost:        cfg.UnitPrice * mt,
	}, nil
}

// concaveArgmax maximizes a unimodal (discretely concave) function over the
// integers start <= r < limit in O(log(peak)) evaluations: exponential search
// to bracket the peak, then binary search on the sign of the first
// difference. It evaluates u below limit only, and returns -1 when that does
// not show the peak: u is still rising at limit-2, or start leaves no room.
func concaveArgmax(u func(int) float64, start, limit int) int {
	if start+1 >= limit {
		return -1
	}
	// If the function is already non-increasing at start, start is optimal
	// within the concave region.
	if u(start+1) <= u(start) {
		return start
	}
	// Exponential bracketing: find hi with u(hi+1) <= u(hi).
	lo, step := start, 1
	hi := start + 1
	for u(hi+1) > u(hi) {
		if hi+2 >= limit {
			return -1
		}
		lo = hi
		step *= 2
		hi = min(hi+step, limit-2)
	}
	// Invariant: u is increasing at lo, non-increasing at hi; peak in
	// (lo, hi]. Binary search the first r with u(r+1) <= u(r).
	for lo < hi {
		mid := lo + (hi-lo)/2
		if u(mid+1) > u(mid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// SolveAll optimizes every Chronos strategy for the same parameters and
// returns the per-strategy results keyed by paper order (Clone, S-Restart,
// S-Resume). Strategies that are infeasible (PoCD never exceeds RMin) are
// reported with Utility = -Inf and R = -1.
func SolveAll(p analysis.Params, cfg Config) []Result {
	out := make([]Result, 0, 3)
	for _, s := range analysis.Strategies() {
		res, err := SolveStrategy(s, p, cfg)
		if err != nil {
			res = Result{Strategy: s.String(), R: -1, Utility: math.Inf(-1)}
		}
		out = append(out, res)
	}
	return out
}

// Best returns the strategy result with the highest utility from SolveAll,
// and ErrInfeasible if none is feasible.
func Best(p analysis.Params, cfg Config) (Result, error) {
	results := SolveAll(p, cfg)
	best := results[0]
	for _, r := range results[1:] {
		if r.Utility > best.Utility {
			best = r
		}
	}
	if math.IsInf(best.Utility, -1) {
		return Result{}, ErrInfeasible
	}
	return best, nil
}
