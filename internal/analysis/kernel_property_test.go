package analysis

import (
	"math"
	"testing"
	"testing/quick"
)

// The Evaluator is the only implementation of the closed forms, and cache
// keys, frontier tables and the golden files all assume the exact float64 it
// returns. The reference forms below are what pins those bits inside this
// package: test-local, straightforward reimplementations of the published
// formulas — no hoisting, no tables — that the kernel must match bit for bit
// across randomized parameter points, so a hoisting or reordering slip in the
// kernel is caught even where it moves only the last place. (Across commits,
// testdata/plan_golden.json in the root package pins the same values.)

// refPoCDFrom is pocdFromTaskFailure as published: (1-q)^N by math.Pow.
func refPoCDFrom(q float64, n int) float64 {
	return math.Pow(1-clampProb(q), float64(n))
}

// refRestartPows binds restartSurvivor to bases that take every power from
// math.Pow: a powBase with only x set.
func refRestartPows(p Params) *restartPows {
	return &restartPows{
		tm:   powBase{x: p.Task.TMin},
		dBar: powBase{x: p.Deadline - p.TauEst},
		tmD:  powBase{x: p.Task.TMin / p.Deadline},
	}
}

// refPoCD re-derives Theorems 1, 3, 5 from scratch: no hoisting, no tables,
// just the published formulas over powInt and math.Pow.
func refPoCD(s Strategy, p Params, r int) float64 {
	switch s {
	case StrategyClone:
		q := powInt(p.Task.Survival(p.Deadline), r+1)
		return refPoCDFrom(q, p.N)
	case StrategyRestart:
		failOrig := p.Task.Survival(p.Deadline)
		failExtra := clampProb(p.Task.Survival(p.Deadline - p.TauEst))
		if p.Deadline-p.TauEst <= p.Task.TMin {
			failExtra = 1
		}
		return refPoCDFrom(failOrig*powInt(failExtra, r), p.N)
	default: // StrategyResume
		phi := p.phi()
		failOrig := p.Task.Survival(p.Deadline)
		remaining := p.Task.Scaled(1 - phi)
		failExtra := clampProb(remaining.Survival(p.Deadline - p.TauEst))
		if p.Deadline-p.TauEst <= remaining.TMin {
			failExtra = 1
		}
		return refPoCDFrom(failOrig*powInt(failExtra, r+1), p.N)
	}
}

// refMachineTime re-derives Theorems 2, 4, 6 in the published forms' operation
// order with none of the kernel's caching: every power is math.Pow's.
func refMachineTime(s Strategy, p Params, r int) float64 {
	switch s {
	case StrategyClone:
		return float64(p.N) * (float64(r)*p.TauKill + p.Task.ExpectedMin(r+1))
	case StrategyRestart:
		if r == 0 {
			return float64(p.N) * p.Task.Mean()
		}
		pMiss := p.Task.Survival(p.Deadline)
		meanHit := p.Task.MeanBelow(p.Deadline)
		straggler := p.TauEst + float64(r)*(p.TauKill-p.TauEst) + restartSurvivor(p, r, refRestartPows(p))
		return float64(p.N) * (meanHit*(1-pMiss) + straggler*pMiss)
	default: // StrategyResume
		phi := p.phi()
		pMiss := p.Task.Survival(p.Deadline)
		meanHit := p.Task.MeanBelow(p.Deadline)
		if r < 0 {
			r = 0
		}
		survivor := resumeSurvivor(p.Task.TMin, p.Task.Beta, &powBase{x: 1 - phi}, r)
		straggler := p.TauEst + float64(r)*(p.TauKill-p.TauEst) + survivor
		return float64(p.N) * (meanHit*(1-pMiss) + straggler*pMiss)
	}
}

// refGamma re-derives Theorem 8's threshold: solve q(r) = A*rho^(r+c) = 1/N
// for r, with each strategy's A, rho and c as refPoCD forms them (the
// failExtra = 1 override included, where the threshold degenerates to -1).
func refGamma(s Strategy, p Params) float64 {
	a, rho, c := p.Task.Survival(p.Deadline), 0.0, 0.0
	switch s {
	case StrategyClone:
		a, rho, c = 1, a, 1
	case StrategyRestart:
		rho = clampProb(p.Task.Survival(p.Deadline - p.TauEst))
		if p.Deadline-p.TauEst <= p.Task.TMin {
			rho = 1
		}
	default: // StrategyResume
		remaining := p.Task.Scaled(1 - p.phi())
		rho, c = clampProb(remaining.Survival(p.Deadline-p.TauEst)), 1
		if p.Deadline-p.TauEst <= remaining.TMin {
			rho = 1
		}
	}
	if rho <= 0 || rho >= 1 || a <= 0 {
		return -1
	}
	if r := -math.Log(float64(p.N)*a)/math.Log(rho) - c; !math.IsNaN(r) {
		return r
	}
	return -1
}

// sameBits reports float64 equality at the bit level (NaN == NaN, 0 != -0).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// kernelProbeRs covers the optimizer's working range: the dense small-r scan,
// a few mid-range points, and large r values deep into the powTab range.
var kernelProbeRs = []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 31, 100, 1023, 1 << 14, 1<<20 - 1, 1 << 20}

// TestPropertyKernelBitIdentical: for random parameter points, the Evaluator
// returns bit-identical PoCD, MachineTime, and Gamma to the from-scratch
// reference forms, at every probed r: bound by Reset, and by one BindJob
// whose strategies are rebound Clone, Restart, Resume and then back, so a
// term left over from the strategy bound before fails it. One Evaluator
// serves every parameter point, as a pooled one does, so a term left over
// from the job bound before fails it too.
func TestPropertyKernelBitIdentical(t *testing.T) {
	var e Evaluator
	check := func(e *Evaluator, s Strategy, p Params, how string) bool {
		if !sameBits(e.Gamma(), refGamma(s, p)) {
			t.Logf("%v (%s) gamma: kernel %v reference %v", s, how, e.Gamma(), refGamma(s, p))
			return false
		}
		for _, r := range kernelProbeRs {
			kp, kt := e.PoCD(r), e.MachineTime(r)
			if !sameBits(kp, refPoCD(s, p, r)) || !sameBits(kt, refMachineTime(s, p, r)) {
				t.Logf("%v (%s) r=%d: kernel (%v, %v) reference (%v, %v)",
					s, how, r, kp, kt, refPoCD(s, p, r), refMachineTime(s, p, r))
				return false
			}
		}
		return true
	}
	order := append(Strategies(), StrategyRestart, StrategyClone)
	f := func(nRaw, dRaw, bRaw, tRaw uint32, phiRaw uint8) bool {
		p := propParams(nRaw, dRaw, bRaw, tRaw)
		p.PhiEst = float64(phiRaw%4) / 4 // the default, then 1/4, 1/2, 3/4
		if p.Validate() != nil {
			return true
		}
		for _, s := range Strategies() {
			e.Reset(s, p)
			if !check(&e, s, p, "Reset") {
				return false
			}
		}
		e.BindJob(p)
		for _, s := range order { // Clone, Restart, Resume, Restart, Clone
			e.Rebind(s)
			if !check(&e, s, p, "Rebind") {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestPropertyPowTab: the squares table replays powInt's exact multiply
// sequence, so every in-range exponent matches bit for bit; out-of-range
// exponents (negative, >= 2^powTabBits) fall back to powInt by construction.
func TestPropertyPowTab(t *testing.T) {
	f := func(xRaw uint32, nRaw uint32) bool {
		// Bases in (0, 1], the probability range the kernel uses.
		x := (float64(xRaw%1_000_000) + 1) / 1_000_000
		var tab powTab
		tab.init(x)
		exps := []int{
			0, 1, 2, 3, int(nRaw % 64), int(nRaw % 4096), int(nRaw) % (1 << powTabBits),
			1<<powTabBits - 1, 1 << powTabBits, -3,
		}
		for _, n := range exps {
			if !sameBits(tab.pow(n), powInt(x, n)) {
				t.Logf("x=%v n=%d: powTab %v powInt %v", x, n, tab.pow(n), powInt(x, n))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// tailSimpson evaluates Theorem 4's non-elementary integral by brute-force
// composite Simpson under the double substitution u = 1/w (mapping the
// infinite domain to (0, 1/dBar]) followed by u = s^6/dBar on s in [0, 1].
// Near w = inf the transformed integrand behaves like u^(beta(r+1)-2), whose
// fractional power is a branch singularity that would cap Simpson at low
// order; the power substitution lifts it to at least s^5 smoothness (exponent
// 6*(beta(r+1)-2)+5 >= 6.2 on this grid), restoring O(h^4) convergence. This
// is the high-resolution reference the series is pinned against: unlike the
// production adaptive quadrature, its error here is far below the series'
// own ~1e-14.
func tailSimpson(b, d, te, br, tm, dBar float64) float64 {
	f := func(s float64) float64 {
		if s == 0 {
			return 0
		}
		u := s * s * s * s * s * s / dBar
		w := 1 / u
		// g(u)*du/ds with g the 1/w-transformed integrand and du/ds = 6s^5/dBar.
		return math.Pow(d/(w+te), b) * math.Pow(tm/w, br) / (u * u) *
			6 * s * s * s * s * s / dBar
	}
	const n = 50_000 // even
	h := 1.0 / n
	sum := f(0) + f(1)
	for i := 1; i < n; i++ {
		weight := 4.0
		if i%2 == 0 {
			weight = 2.0
		}
		sum += weight * f(float64(i)*h)
	}
	return sum * h / 3
}

// TestRestartSurvivorTailSeries pins the series evaluation of Theorem 4's
// non-elementary integral against brute-force Simpson on a parameter grid
// away from the underflow corners, where both evaluations are accurate.
func TestRestartSurvivorTailSeries(t *testing.T) {
	for _, beta := range []float64{1.1, 1.5, 2.0, 3.0} {
		for _, dOverTm := range []float64{1.5, 2.5, 4.0, 6.0} {
			for _, teFrac := range []float64{0.1, 0.25, 0.4} {
				for r := 1; r <= 6; r++ {
					tm := 10.0
					d := tm * dOverTm
					te := teFrac * d
					dBar := d - te
					if dBar <= tm {
						continue
					}
					br := beta * float64(r)
					got := restartSurvivorTail(tm, beta, d, te, br, dBar, math.Pow(tm/d, br))
					want := tailSimpson(beta, d, te, br, tm, dBar)
					if rel := math.Abs(got-want) / math.Abs(want); rel > 1e-9 {
						t.Errorf("beta=%v D/tm=%v te/D=%v r=%d: series %v simpson %v rel %v",
							beta, dOverTm, teFrac, r, got, want, rel)
					}
				}
			}
		}
	}
}
