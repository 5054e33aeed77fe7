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

// result names the strategy a point was evaluated for.
func (p Point) result(strategy string) Result {
	return Result{Strategy: strategy, R: p.R, Utility: p.Utility, PoCD: p.PoCD, MachineTime: p.MachineTime, Cost: p.Cost}
}

// Solve runs Algorithm 1 of the paper for one analytic model: an ascent
// search over the provably concave region r > Gamma (Phase 1) combined with
// an exhaustive scan of the integers 0 <= r < ceil(Gamma) (Phase 2). By
// Theorem 9 the combination returns a global maximizer of U. Production plans
// a (strategy, params) pair through SolveStrategies, which does the same without
// allocating; Solve is the seam for any other Model — today only the tests'
// probe-counting fakes call it, and a capacity-aware model (ROADMAP item 1(d))
// would plug in here.
func Solve(m analysis.Model, cfg Config) (Result, error) {
	if err := validate(cfg, m.Params()); err != nil {
		return Result{}, err
	}
	mm := acquire(m)
	defer mm.release()
	return mm.solve(cfg)
}

// SolveStrategy is SolveStrategies for one strategy.
func SolveStrategy(s analysis.Strategy, p analysis.Params, cfg Config) (Result, error) {
	var res [1]Result
	var errs [1]error
	SolveStrategies([]analysis.Strategy{s}, p, cfg, res[:], errs[:])
	return res[0], errs[0]
}

// SolveStrategies runs Algorithm 1 for each strategy ss[i] over one job,
// leaving its answer in res[i] and errs[i]: the plan, or ErrInfeasible (and
// ErrSearchCap) when the strategy has none. It validates once — a
// validation error is every strategy's — and solves on one pooled memo: the
// kernel binds the job's terms once and rebinds only the strategy's for
// each, and the memo's caches are emptied between strategies. Nothing is
// allocated. res and errs must be at least as long as ss.
func SolveStrategies(ss []analysis.Strategy, p analysis.Params, cfg Config, res []Result, errs []error) {
	if err := validate(cfg, p); err != nil {
		for i := range ss {
			res[i], errs[i] = Result{}, err
		}
		return
	}
	mm := acquireJob(p)
	defer mm.release()
	for i, s := range ss {
		mm.rebind(s)
		res[i], errs[i] = mm.solve(cfg)
	}
}

func validate(cfg Config, p analysis.Params) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	return p.Validate()
}

// solve is Algorithm 1 on a memo, shared by the unconstrained and the
// budget-capped entries so a capped solve reuses the same evaluations.
func (m *memoModel) solve(cfg Config) (Result, error) {
	start := 0
	if gamma := m.Gamma(); gamma > 0 {
		start = int(math.Min(math.Ceil(gamma), searchCap))
	}

	// Phase 1: U is concave (hence unimodal) on r >= start. Bracket the peak
	// by exponential probing, then binary-search the first difference. The
	// closure does not escape concaveArgmax, so it stays on the stack.
	bestR := concaveArgmax(func(r int) float64 { return m.utility(cfg, r) }, start, searchCap)
	if bestR < 0 {
		return Result{}, ErrSearchCap
	}
	best := m.pointAt(cfg, bestR)

	// Phase 2: exhaustive scan below the concavity threshold.
	for r := 0; r < start; r++ {
		if m.utility(cfg, r) > best.Utility {
			best = m.pointAt(cfg, r)
		}
	}

	// Not "== -Inf": a NaN utility compares false with everything, and must
	// not be returned as a plan either.
	if !(best.Utility > math.Inf(-1)) {
		return Result{}, ErrInfeasible
	}
	return best.result(m.Name()), nil
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
