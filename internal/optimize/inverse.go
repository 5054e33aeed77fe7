package optimize

import (
	"errors"

	"chronos/internal/analysis"
)

// ErrUnreachablePoCD reports a PoCD target that no number of extra attempts
// can reach (e.g. target 1.0, or a deadline below tmin).
var ErrUnreachablePoCD = errors.New("optimize: PoCD target unreachable for any r")

// maxInverseR bounds the inverse search; PoCD(r) converges geometrically so
// realistic targets are reached within tens of attempts.
const maxInverseR = 4096

// MinCostForPoCD returns the cheapest configuration that meets a PoCD
// target: because PoCD is non-decreasing and machine time strictly
// increasing in r, the minimum-cost feasible point is the smallest r with
// PoCD(r) >= target. This is the "user budget for desired PoCD" direction of
// the tradeoff described in the paper's introduction. The utility it reports
// is -Inf when the target itself does not exceed cfg.RMin.
func MinCostForPoCD(s analysis.Strategy, p analysis.Params, cfg Config, target float64) (Result, error) {
	if target <= 0 || target > 1 {
		return Result{}, ErrUnreachablePoCD
	}
	mm := acquireStrategy(s, p)
	defer mm.release()
	for r := 0; r <= maxInverseR; r++ {
		if mm.PoCD(r) >= target {
			return mm.pointAt(cfg, r).result(mm.Name()), nil
		}
	}
	return Result{}, ErrUnreachablePoCD
}
