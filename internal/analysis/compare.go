package analysis

import "math"

// powInt computes x^n for integer n >= 0 by repeated squaring; it avoids the
// accuracy loss of math.Pow for exact small integer exponents and is the
// hot-path power in the PoCD formulas.
func powInt(x float64, n int) float64 {
	if n < 0 {
		return 1 / powInt(x, -n)
	}
	result := 1.0
	for n > 0 {
		if n&1 == 1 {
			result *= x
		}
		x *= x
		n >>= 1
	}
	return result
}

// Theorem 7 establishes, for a common r:
//
//  1. R_Clone > R_S-Restart (always),
//  2. R_S-Resume > R_S-Restart (whenever D-tauEst >= (1-phi)*tmin),
//  3. R_Clone >< R_S-Resume with a crossover in r.
//
// CompareAtR evaluates all three orderings from the closed forms.

// Comparison reports the Theorem 7 orderings at a given r.
type Comparison struct {
	R                   int
	CloneOverRestart    bool // conclusion 1
	ResumeOverRestart   bool // conclusion 2
	CloneOverResume     bool // conclusion 3 at this r
	CloneResumeCrossR   float64
	Clone, Restart, Res float64 // the three PoCDs
}

// CompareAtR evaluates the three PoCDs and their orderings at r.
func CompareAtR(p Params, r int) Comparison {
	var pocd [3]float64
	var e Evaluator
	for i, s := range Strategies() {
		e.Reset(s, p)
		pocd[i] = e.PoCD(r)
	}
	c, re, rs := pocd[0], pocd[1], pocd[2]
	return Comparison{
		R:                 r,
		CloneOverRestart:  c >= re,
		ResumeOverRestart: rs >= re,
		CloneOverResume:   c >= rs,
		CloneResumeCrossR: CloneResumeCrossover(p),
		Clone:             c,
		Restart:           re,
		Res:               rs,
	}
}

// CloneResumeCrossover returns the r above which Clone's PoCD exceeds
// Speculative-Resume's (conclusion 3 of Theorem 7). Comparing per-task
// failure probabilities,
//
//	q_Clone(r)/q_Resume(r) = [(D-tauEst) / ((1-phi)*D)]^(beta*(r+1)) *
//	                         (D / tmin)^... (after cancellation)
//
// solving q_Clone(r) = q_Resume(r) for real r gives
//
//	r* = ln((1-phi)*tmin / (D-tauEst)) / ln((D-tauEst) / ((1-phi)*D)).
//
// (The published Eq. 60 carries stray beta exponents that cancel in the
// derivation from Eq. 59; the formula here is consistent with Eq. 59 and is
// property-tested against the raw PoCD formulas.)
//
// For a straggler, D-tauEst < (1-phi)*D, so the log base is < 1 and Clone
// wins for r > r*. Returns -Inf if Clone wins for every r >= 0, +Inf if
// Resume always wins.
func CloneResumeCrossover(p Params) float64 {
	phi := p.phi()
	dBar := p.Deadline - p.TauEst
	phiBar := 1 - phi
	den := math.Log(dBar / (phiBar * p.Deadline))
	num := math.Log(phiBar * p.Task.TMin / dBar)
	if den == 0 {
		if num < 0 {
			return math.Inf(-1) // equal bases: Clone never overtaken
		}
		return math.Inf(1)
	}
	return num / den
}
