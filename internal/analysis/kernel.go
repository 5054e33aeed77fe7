package analysis

import "math"

// Evaluator is the implementation of the paper's closed forms — PoCD
// (Theorems 1, 3, 5), expected machine time (Theorems 2, 4, 6) and the
// concavity threshold Gamma (Theorem 8) — for one (strategy, Params) pair. It
// is a recurrence kernel: binding hoists every r-invariant term (the
// deadline-miss probabilities, the geometric ratio and its squares table, the
// truncated-Pareto mean, Gamma, the bases of its powers) out of the
// per-probe path. A PoCD probe then costs a few multiplies and one integer
// power by squaring; a MachineTime probe costs Clone a few multiply-adds,
// Resume one power of a cached base, and Restart three powers of cached
// bases plus the series of restartSurvivorTail.
//
// Binding has two levels, so one job's three strategies share the work:
// BindJob computes the terms of the job alone, and Rebind the terms of one
// strategy on top of them. Reset does both.
//
// Cache keys, goldens and frontier tables all depend on the exact float64 each
// probe returns. Those bits are pinned by the from-scratch reference forms in
// kernel_property_test.go (no hoisting, no tables: the published formulas
// over powInt and math.Pow, in the operation order the branches below keep)
// and, across commits, by testdata/plan_golden.json in the root package;
// hoisting a subexpression preserves bits only when the cached value is
// produced by the same operations on the same operands.
//
// The zero Evaluator is not usable; call Reset, or BindJob then Rebind,
// first. An Evaluator is not safe for concurrent use.
type Evaluator struct {
	strat Strategy
	p     Params

	// Job terms, set by BindJob.
	nF       float64 // float64(p.N), conversion is exact
	failOrig float64 // P(original attempt misses D); Clone: single-attempt miss
	tauDiff  float64 // TauKill - TauEst
	// Reactive job terms, read by Restart and Resume only and so set at the
	// first Rebind to either.
	reactive bool    // hitTerm and lnNFail are set
	hitTerm  float64 // meanHit * (1 - pMiss), the non-straggler cost term
	lnNFail  float64 // Log(N * failOrig), Theorem 8's numerator

	// Strategy terms, set by Rebind.
	gamma float64 // Theorem 8 threshold
	// failExtra is the geometric ratio rho of q(r) = A*rho^(r+c): the miss
	// probability of one extra attempt (Clone: same as failOrig).
	failExtra float64
	powExtra  powTab      // squares table over failExtra, see powtab.go
	meanAll   float64     // N * E[T], Restart's r == 0 machine time
	restart   restartPows // Restart's survivor bases
	omPhi     powBase     // 1 - phi, Resume's survivor base
}

var _ Model = (*Evaluator)(nil)

// Reset binds the evaluator to a strategy and parameter set: BindJob(p),
// then Rebind(s). It performs no validation; callers that need the closed
// forms' preconditions enforced should Validate the Params first.
func (e *Evaluator) Reset(s Strategy, p Params) {
	e.BindJob(p)
	e.Rebind(s)
}

// BindJob binds the evaluator to a parameter set, computing the terms every
// strategy shares: the miss probability of the original attempt, Survival(D),
// among them. No strategy is bound until Rebind. Like Reset it performs no
// validation.
func (e *Evaluator) BindJob(p Params) {
	*e = Evaluator{
		p:        p,
		nF:       float64(p.N),
		failOrig: p.Task.Survival(p.Deadline),
		tauDiff:  p.TauKill - p.TauEst,
	}
}

// Rebind binds the evaluator to strategy s on the job BindJob bound,
// computing every r-invariant term of s and reusing the job's. It panics on
// a strategy outside the three Chronos strategies.
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
func (e *Evaluator) Rebind(s Strategy) {
	p := &e.p
	e.strat = s
	switch s {
	case StrategyClone:
		e.failExtra = e.failOrig
		// A = 1: Log(N*1) is Log(N), bit for bit.
		e.gamma = concavityThreshold(1, e.failOrig, 1, math.Log(e.nF))
	case StrategyRestart:
		e.bindReactive()
		failExtra := clampProb(p.Task.Survival(p.Deadline - p.TauEst))
		if p.Deadline-p.TauEst <= p.Task.TMin {
			failExtra = 1 // a restarted attempt cannot finish in time
		}
		e.failExtra = failExtra
		e.gamma = concavityThreshold(e.failOrig, failExtra, 0, e.lnNFail)
		e.meanAll = e.nF * p.Task.Mean()
		e.restart.init(*p)
	case StrategyResume:
		e.bindReactive()
		phi := p.phi()
		remaining := p.Task.Scaled(1 - phi)
		failExtra := clampProb(remaining.Survival(p.Deadline - p.TauEst))
		if p.Deadline-p.TauEst <= remaining.TMin {
			failExtra = 1
		}
		e.failExtra = failExtra
		e.gamma = concavityThreshold(e.failOrig, failExtra, 1, e.lnNFail)
		e.omPhi.init(1 - phi)
	default:
		panic("analysis: unknown strategy")
	}
	e.powExtra.init(e.failExtra)
}

// bindReactive sets the job terms only the reactive strategies read, once
// per BindJob. The non-straggler branch of Restart's and Resume's
// MachineTime weighs the truncated mean by 1 - pMiss, the same Survival(D)
// as failOrig; hitTerm caches that product of the published forms.
func (e *Evaluator) bindReactive() {
	if e.reactive {
		return
	}
	e.reactive = true
	e.hitTerm = e.p.Task.MeanBelow(e.p.Deadline) * (1 - e.failOrig)
	e.lnNFail = math.Log(e.nF * e.failOrig)
}

// Name implements Model.
func (e *Evaluator) Name() string { return e.strat.String() }

// Params implements Model.
func (e *Evaluator) Params() Params { return e.p }

// Gamma implements Model; the threshold is computed once at Rebind.
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
// cached A and the squares table; what remains is pocdFromTaskFailure's
// (1-q)^N, an integer power by squaring.
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
		straggler := p.TauEst + float64(r)*e.tauDiff + restartSurvivor(p, r, &e.restart)
		perTask := e.hitTerm + straggler*e.failOrig
		return e.nF * perTask
	default: // StrategyResume
		if r < 0 {
			r = 0
		}
		straggler := p.TauEst + float64(r)*e.tauDiff + resumeSurvivor(p.Task.TMin, p.Task.Beta, &e.omPhi, r)
		perTask := e.hitTerm + straggler*e.failOrig
		return e.nF * perTask
	}
}

// resumeSurvivor is Theorem 6's straggler survivor term,
//
//	tmin + tmin*(1-phi)^(beta*(r+1)) / (beta*(r+1)-1),
//
// with omPhi the base 1-phi.
func resumeSurvivor(tm, b float64, omPhi *powBase, r int) float64 {
	brp := b * float64(r+1)
	return tm + tm*omPhi.pow(brp)/(brp-1)
}
