package analysis

import "math"

// Evaluator is the implementation of the paper's closed forms — PoCD
// (Theorems 1, 3, 5), expected machine time (Theorems 2, 4, 6) and the
// concavity threshold Gamma (Theorem 8) — for one (strategy, Params) pair. It
// is a recurrence kernel: Reset hoists every r-invariant term (the
// deadline-miss probabilities, the geometric ratio and its squares table, the
// truncated-Pareto mean, Gamma) out of the per-probe path, so each
// PoCD/MachineTime probe costs a handful of multiply-adds plus at most one
// math.Pow.
//
// Cache keys, goldens and frontier tables all depend on the exact float64 each
// probe returns. Those bits are pinned by the from-scratch reference forms in
// kernel_property_test.go (no hoisting, no tables: the published formulas
// over powInt, in the operation order the branches below keep) and, across
// commits, by testdata/plan_golden.json in the root package; hoisting a
// subexpression preserves bits only when the cached value is produced by the
// same operations on the same operands.
//
// The zero Evaluator is not usable; call Reset first. An Evaluator is not
// safe for concurrent use.
type Evaluator struct {
	strat Strategy
	p     Params

	nF       float64 // float64(p.N), conversion is exact
	gamma    float64 // Theorem 8 threshold, fixed per (strategy, Params)
	failOrig float64 // P(original attempt misses D); Clone: single-attempt miss
	// failExtra is the geometric ratio rho of q(r) = A*rho^(r+c): the miss
	// probability of one extra attempt (Clone: same as failOrig).
	failExtra float64
	powExtra  powTab  // squares table over failExtra, see powtab.go
	hitTerm   float64 // meanHit * (1 - pMiss), the non-straggler cost term
	meanAll   float64 // N * E[T], Restart's r == 0 machine time
	tauDiff   float64 // TauKill - TauEst
	omPhi     float64 // 1 - phi (Resume only)
}

var _ Model = (*Evaluator)(nil)

// Reset binds the evaluator to a strategy and parameter set, computing every
// r-invariant term once. It performs no validation; callers that need the
// closed forms' preconditions enforced should Validate the Params first.
//
// Each strategy's per-task miss probability is geometric in r,
// q(r) = A * rho^(r+c), and Gamma solves q(r) = 1/N (see gamma.go):
//
//   - Clone: r+1 attempts of every task start at time zero, each missing with
//     probability (tmin/D)^beta; A = 1, rho = (tmin/D)^beta, c = 1, so
//     Gamma = ln(N) / (beta * ln(D/tmin)) - 1 (Eq. 27).
//   - Speculative-Restart: the original misses with probability A =
//     (tmin/D)^beta; each of the r attempts restarted from scratch at tauEst
//     has D-tauEst seconds left and misses with rho = (tmin/(D-tauEst))^beta;
//     c = 0 (Eq. 28).
//   - Speculative-Resume: a detected straggler is killed and r+1 attempts
//     resume from its last byte offset, each processing the remaining
//     (1-phi) of the split: rho = ((1-phi)*tmin/(D-tauEst))^beta, c = 1.
//
// An extra attempt that cannot finish in time at all (D-tauEst at or below
// its minimum duration) has rho = 1: extra attempts buy nothing and Gamma
// degenerates to -1.
func (e *Evaluator) Reset(s Strategy, p Params) {
	*e = Evaluator{strat: s, p: p, nF: float64(p.N)}

	failOrig := p.Task.Survival(p.Deadline)
	e.failOrig = failOrig

	switch s {
	case StrategyClone:
		e.failExtra = failOrig
		e.gamma = concavityThreshold(1, failOrig, 1, p.N)
	case StrategyRestart:
		failExtra := clampProb(p.Task.Survival(p.Deadline - p.TauEst))
		if p.Deadline-p.TauEst <= p.Task.TMin {
			failExtra = 1 // a restarted attempt cannot finish in time
		}
		e.failExtra = failExtra
		e.gamma = concavityThreshold(failOrig, failExtra, 0, p.N)
		e.meanAll = float64(p.N) * p.Task.Mean()
	case StrategyResume:
		phi := p.phi()
		e.omPhi = 1 - phi
		remaining := p.Task.Scaled(1 - phi)
		failExtra := clampProb(remaining.Survival(p.Deadline - p.TauEst))
		if p.Deadline-p.TauEst <= remaining.TMin {
			failExtra = 1
		}
		e.failExtra = failExtra
		e.gamma = concavityThreshold(failOrig, failExtra, 1, p.N)
	default:
		panic("analysis: unknown strategy")
	}

	e.powExtra.init(e.failExtra)

	// Straggler-branch invariants shared by Restart and Resume MachineTime.
	// pMiss is the same Survival(D) expression as failOrig, and hitTerm
	// caches the meanHit*(1-pMiss) product of the published forms.
	meanHit := p.Task.MeanBelow(p.Deadline)
	e.hitTerm = meanHit * (1 - failOrig)
	e.tauDiff = p.TauKill - p.TauEst
}

// Name implements Model.
func (e *Evaluator) Name() string { return e.strat.String() }

// Params implements Model.
func (e *Evaluator) Params() Params { return e.p }

// Gamma implements Model; the threshold is computed once at Reset.
func (e *Evaluator) Gamma() float64 { return e.gamma }

// PoCD implements Model: the job meets its deadline iff all N tasks do, and a
// task misses only if every one of its attempts does.
//
//	Theorem 1  R_Clone     = [1 - (tmin/D)^(beta*(r+1))]^N
//	Theorem 3  R_S-Restart = [1 - tmin^(beta*(r+1)) / (D^beta * (D-tauEst)^(beta*r))]^N
//	Theorem 5  R_S-Resume  = [1 - (1-phi)^(beta*(r+1)) * tmin^(beta*(r+2)) /
//	                              (D^beta * (D-tauEst)^(beta*(r+1)))]^N
//
// The per-task failure probability q(r) = A*rho^(r+c) is assembled from the
// cached A and the squares table; the only remaining transcendental is
// pocdFromTaskFailure's (1-q)^N.
func (e *Evaluator) PoCD(r int) float64 {
	var q float64
	switch e.strat {
	case StrategyClone:
		q = e.powExtra.pow(r + 1)
	case StrategyRestart:
		q = e.failOrig * e.powExtra.pow(r)
	default: // StrategyResume
		q = e.failOrig * e.powExtra.pow(r+1)
	}
	return pocdFromTaskFailure(q, e.p.N)
}

// MachineTime implements Model.
//
// Theorem 2 (Clone): the r killed attempts each run for tauKill and the
// survivor is the minimum of r+1 i.i.d. Pareto variables (Lemma 1):
//
//	E(T) = N * [ r*tauKill + tmin + tmin/(beta*(r+1)-1) ].
//
// Theorems 4 and 6 condition on whether the original attempt is a straggler
// (T1 > D):
//
//	E(T) = E(Tj | T1<=D) P(T1<=D) + E(Tj | T1>D) P(T1>D)
//
// with E(Tj | T1<=D) the truncated Pareto mean and, for the straggler,
//
//	E(Tj | T1>D) = tauEst + r*(tauKill - tauEst) + E(survivor).
//
// Restart (Theorem 4): the survivor is W = min(T1 - tauEst, T2, ..., Tr+1),
// the post-tauEst running time of the attempt that is kept; Lemma 3 replaces
// T1 | T1>D by a Pareto with scale D, giving Eq. 16 (restartSurvivor). With
// r = 0 no extra attempt is ever launched and E(T) = N * E[T1]. Resume
// (Theorem 6): the original runs until tauEst, r resumed attempts run from
// tauEst to tauKill and are killed, and the survivor is the minimum of r+1
// i.i.d. copies of (1-phi)*T (resumeSurvivor).
func (e *Evaluator) MachineTime(r int) float64 {
	p := e.p
	switch e.strat {
	case StrategyClone:
		perTask := float64(r)*p.TauKill + p.Task.ExpectedMin(r+1)
		return e.nF * perTask
	case StrategyRestart:
		if r == 0 {
			return e.meanAll
		}
		straggler := p.TauEst + float64(r)*e.tauDiff + restartSurvivor(p, r)
		perTask := e.hitTerm + straggler*e.failOrig
		return e.nF * perTask
	default: // StrategyResume
		if r < 0 {
			r = 0
		}
		straggler := p.TauEst + float64(r)*e.tauDiff + resumeSurvivor(p.Task.TMin, p.Task.Beta, e.omPhi, r)
		perTask := e.hitTerm + straggler*e.failOrig
		return e.nF * perTask
	}
}

// resumeSurvivor is Theorem 6's straggler survivor term,
//
//	tmin + tmin*(1-phi)^(beta*(r+1)) / (beta*(r+1)-1).
func resumeSurvivor(tm, b, omPhi float64, r int) float64 {
	brp := b * float64(r+1)
	return tm + tm*math.Pow(omPhi, brp)/(brp-1)
}
