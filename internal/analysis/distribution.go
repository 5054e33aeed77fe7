package analysis

import "math"

// PoCD is a point evaluation of the job completion-time distribution:
// R(r) = P(T_job <= D). Because every strategy's closed form holds for any
// deadline value, re-evaluating the model at deadline t yields the full CDF
// F(t) = P(T_job <= t) — the distributional view behind SLA quantiles
// ("what deadline can I promise at the 99th percentile?").

// CompletionCDF returns F(t) = P(job completes by t) for the strategy at the
// given r. The control instants tauEst/tauKill stay fixed (they are schedule
// parameters, not functions of the queried t); t values at or below tauKill
// fall back to the no-speculation bound for reactive strategies, and 0 below
// tmin.
func CompletionCDF(s Strategy, p Params, r int, t float64) float64 {
	var e Evaluator
	return e.cdfAt(s, p, r, t)
}

// cdfAt is CompletionCDF on a caller-owned evaluator, so a bisection re-binds
// one Evaluator instead of building a model per step.
func (e *Evaluator) cdfAt(s Strategy, p Params, r int, t float64) float64 {
	if t <= p.Task.TMin {
		return 0
	}
	p.Deadline = t
	// Keep the schedule valid for the shifted-deadline evaluation: if the
	// queried t precedes the kill instant, the speculative machinery has
	// not produced a survivor yet; the completion probability is governed
	// by the original attempts alone (Clone's r+1 clones still count).
	if t <= p.TauKill {
		p.TauEst, p.TauKill = 0, 0
		if s != StrategyClone {
			r = 0 // only originals are running
		}
		s = StrategyClone
	}
	e.Reset(s, p)
	return e.PoCD(r)
}

// CompletionQuantile returns the smallest t with CompletionCDF >= prob, via
// bisection on the monotone CDF. Returns +Inf for prob >= 1 and tmin for
// prob <= 0.
func CompletionQuantile(s Strategy, p Params, r int, prob float64) float64 {
	if prob <= 0 {
		return p.Task.TMin
	}
	if prob >= 1 {
		return math.Inf(1)
	}
	// Bracket: the CDF is 0 at tmin and approaches 1; grow the upper
	// bound geometrically.
	var e Evaluator
	lo, hi := p.Task.TMin, math.Max(p.Deadline, 2*p.Task.TMin)
	for e.cdfAt(s, p, r, hi) < prob {
		hi *= 2
		if hi > 1e12 {
			return math.Inf(1)
		}
	}
	for i := 0; i < 200 && hi-lo > 1e-9*hi; i++ {
		mid := (lo + hi) / 2
		if e.cdfAt(s, p, r, mid) >= prob {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// DeadlineForPoCD returns the tightest deadline the strategy can promise at
// the target PoCD with r extra attempts — the SLA-quoting direction.
func DeadlineForPoCD(s Strategy, p Params, r int, target float64) float64 {
	return CompletionQuantile(s, p, r, target)
}
