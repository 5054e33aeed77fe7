package analysis

import "math"

// DeadlineForPoCD returns the tightest deadline the strategy can promise at
// the target PoCD with r extra attempts — the SLA-quoting direction ("what
// deadline can I sign at the 99th percentile?"). It bisects PoCD over the
// candidate deadline, each candidate evaluated as the job's own deadline:
// the reactive strategies judge stragglers against it, so the answer is the
// deadline to sign, not a quantile of completion under some other deadline.
// Returns +Inf for target >= 1 and tmin for target <= 0.
func DeadlineForPoCD(s Strategy, p Params, r int, target float64) float64 {
	if target <= 0 {
		return p.Task.TMin
	}
	if target >= 1 {
		return math.Inf(1)
	}
	// Bracket: PoCD is 0 at tmin and approaches 1; grow the upper bound
	// geometrically.
	var e Evaluator
	lo, hi := p.Task.TMin, math.Max(p.Deadline, 2*p.Task.TMin)
	for e.pocdAt(s, p, r, hi) < target {
		hi *= 2
		if hi > 1e12 {
			return math.Inf(1)
		}
	}
	for i := 0; i < 200 && hi-lo > 1e-9*hi; i++ {
		mid := (lo + hi) / 2
		if e.pocdAt(s, p, r, mid) >= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// pocdAt is the PoCD of the job with its deadline set to d, on a
// caller-owned evaluator so the bisection re-binds one Evaluator instead of
// building a model per step. A deadline at or before tauKill comes before
// the speculative copies can matter: only the attempts running from the
// start count (Clone's r+1, a reactive strategy's original).
func (e *Evaluator) pocdAt(s Strategy, p Params, r int, d float64) float64 {
	if d <= p.Task.TMin {
		return 0
	}
	p.Deadline = d
	if d <= p.TauKill {
		p.TauEst, p.TauKill = 0, 0
		if s != StrategyClone {
			r = 0
		}
		s = StrategyClone
	}
	e.Reset(s, p)
	return e.PoCD(r)
}
