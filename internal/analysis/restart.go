package analysis

import (
	"math"

	"chronos/internal/pareto"
)

// restartSurvivor returns E[min(T1-tauEst, T2, ..., Tr+1) | T1 > D]: the
// expected post-tauEst running time of the attempt Speculative-Restart keeps
// (Theorem 4). Writing That = T1 | T1 > D ~ Pareto(D, beta) (Lemma 3):
//
//	E[W] = tmin + Int_tmin^inf P(That - tauEst >= w) * P(T >= w)^r dw
//	     = tmin + Int_tmin^{D-tauEst} (tmin/w)^(beta r) dw
//	            + Int_{D-tauEst}^inf (D/(w+tauEst))^beta (tmin/w)^(beta r) dw.
//
// The first integral is elementary (with a log limit at beta*r == 1); the
// second has the convergent series form evaluated by restartSurvivorTail.
// pw holds the bases of the per-probe powers, bound to p.
func restartSurvivor(p Params, r int, pw *restartPows) float64 {
	tm, b, d, te := p.Task.TMin, p.Task.Beta, p.Deadline, p.TauEst
	dBar := d - te
	if dBar <= tm {
		// The survivor is effectively the (conditioned) original: the extra
		// attempts cannot even reach tmin of processing before the original
		// would have had to finish. Integrate the general form numerically.
		return survivorTimeNumeric(p, r)
	}
	br := b * float64(r)

	var head float64 // Int_tmin^{D-tauEst} (tmin/w)^(beta r) dw
	if math.Abs(br-1) < 1e-9 {
		head = tm * math.Log(dBar/tm)
	} else if num, den := pw.tm.pow(br), (br-1)*pw.dBar.pow(br-1); inFloatRange(num) && inFloatRange(den) {
		head = tm/(br-1) - num/den
	} else {
		// tmin^(beta r) has left float64 (beta*r*log10(tmin) > 308, which a
		// Gamma in the hundreds reaches) though the ratio it enters is below
		// 1: form the ratio first. Only here, so every value the direct form
		// can represent keeps its bits.
		head = tm / (br - 1) * (1 - math.Pow(tm/dBar, br-1))
	}

	return tm + head + restartSurvivorTail(tm, b, d, te, br, dBar, pw.tmD.pow(br))
}

// restartPows are the bases of restartSurvivor's per-probe powers, which
// take only the exponent from r: tmin, D-tauEst and tmin/D.
type restartPows struct{ tm, dBar, tmD powBase }

// init binds the bases to p.
func (pw *restartPows) init(p Params) {
	pw.tm.init(p.Task.TMin)
	pw.dBar.init(p.Deadline - p.TauEst)
	pw.tmD.init(p.Task.TMin / p.Deadline)
}

// inFloatRange reports whether a positive intermediate is a normal float64:
// neither overflowed to +Inf nor underflowed into (or past) the subnormals.
func inFloatRange(x float64) bool { return x >= 0x1p-1022 && x <= math.MaxFloat64 }

// tailSeriesMaxTerms caps each series below; sized so every parameter set
// whose scale factor (tmin/D)^(beta*r) has not underflowed converges within
// it (the slow-convergence corner te/D -> 1 forces tmin/D -> 0, which caps
// beta*r long before the term count grows past this).
const tailSeriesMaxTerms = 1 << 15

// restartSurvivorTail evaluates the non-elementary integral of Theorem 4,
//
//	Int_{D-tauEst}^inf (D/(w+tauEst))^beta (tmin/w)^(beta*r) dw,
//
// by the substitution v = w + tauEst and a generalized binomial expansion of
// (1 - tauEst/v)^(-beta*r), which turns it into the all-positive convergent
// series
//
//	D * (tmin/D)^k * Sum_n C(k+n-1, n) * y^n / (beta+k+n-1),
//
// with k = beta*r and y = tauEst/D < 1 - tmin/D (guaranteed by the caller's
// D - tauEst > tmin branch); tmDk is the caller's (tmin/D)^k. Each term follows from the last by one
// multiply-add, replacing the adaptive quadrature that used to dominate the
// entire cold-path solve (~95% of a three-strategy optimization).
//
// The sum grows like (1-y)^(-k) while its factor (tmin/D)^k shrinks, so for k
// in the high hundreds one of the two leaves float64 although their product,
// at most tmin*(tmin/(D-tauEst))^(k-1)/(k-1), need not be negligible. There
// the same integral is summed in its Euler-transformed form, anchored at
// D - tauEst instead of D,
//
//	(D-tauEst) * (tmin/(D-tauEst))^k * Sum_n (beta)_n * y^n / (beta+k-1)_(n+1),
//
// ((x)_n the rising factorial), whose factor is at most 1 and whose terms only
// fall, each below y times the last. The quadrature remains as the fallback
// for the (extreme-corner) parameter sets neither capped series can settle.
func restartSurvivorTail(tm, b, d, te, br, dBar, tmDk float64) float64 {
	y := te / d
	bk := b + br - 1 // denominator offset: beta + k - 1 > 0 since beta > 1
	if scale := d * tmDk; inFloatRange(scale) {
		sum, c := 0.0, 1.0
		for n := 0; n < tailSeriesMaxTerms; n++ {
			fn := float64(n)
			term := c / (bk + fn)
			sum += term
			// Terms rise until the ratio y*(k+n)/(n+1) drops below 1, then
			// decay geometrically; once decreasing, the remaining tail is
			// bounded by term * rho / (1 - rho). A sum that overflowed passes
			// this test too (Inf <= Inf), and is left to the other series.
			rho := y * (br + fn) / (fn + 1)
			if rho < 1 && term*rho <= (1-rho)*sum*1e-16 {
				if math.IsInf(sum, 1) {
					break
				}
				return scale * sum
			}
			c *= (br + fn) / (fn + 1) * y
		}
	}
	scale := dBar * math.Pow(tm/dBar, br)
	sum, term := 0.0, 1/bk
	for n := 0; n < tailSeriesMaxTerms; n++ {
		fn := float64(n)
		sum += term
		term *= y * (b + fn) / (bk + fn + 1)
		if term <= (1-y)*sum*1e-16 {
			return scale * sum
		}
	}
	return pareto.Integrate(func(w float64) float64 {
		return math.Pow(d/(w+te), b) * math.Pow(tm/w, br)
	}, dBar, math.Inf(1))
}

// survivorTimeNumeric evaluates E[W] by direct quadrature of
// P(That - tauEst >= w) * P(T >= w)^r without assuming D-tauEst >= tmin.
func survivorTimeNumeric(p Params, r int) float64 {
	tm, b, d, te := p.Task.TMin, p.Task.Beta, p.Deadline, p.TauEst
	integrand := func(w float64) float64 {
		pOrig := 1.0
		if w > d-te {
			pOrig = math.Pow(d/(w+te), b)
		}
		pExtra := 1.0
		if w > tm {
			pExtra = math.Pow(tm/w, b*float64(r))
		}
		return pOrig * pExtra
	}
	return tm + pareto.Integrate(integrand, tm, math.Inf(1))
}
