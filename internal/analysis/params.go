// Package analysis implements the closed-form PoCD (Probability of
// Completion before Deadline) and expected machine-running-time expressions
// of the Chronos paper (Theorems 1-6), the strategy comparisons of Theorem 7,
// and the concavity thresholds of Theorem 8.
//
// All expressions assume a job of N parallel tasks whose attempt execution
// times are i.i.d. Pareto(tmin, beta), a job deadline D, a straggler-detection
// time tauEst and a kill time tauKill (both relative to job start). The
// reactive strategies judge a straggler at tauEst against D itself, so PoCD
// is the probability of meeting D under a plan for D: evaluating a model at
// another deadline moves that threshold too, and does not give a
// completion-time distribution for a fixed D.
package analysis

import (
	"errors"
	"fmt"
	"math"

	"chronos/internal/pareto"
)

// Params collects the analytic inputs shared by every strategy model.
type Params struct {
	// N is the number of parallel tasks in the job. The job meets its
	// deadline only if all N tasks do.
	N int
	// Deadline is the job deadline D (seconds from job start).
	Deadline float64
	// Task is the per-attempt execution time distribution.
	Task pareto.Dist
	// TauEst is the straggler-detection instant for the speculative
	// strategies (ignored by Clone, which is proactive).
	TauEst float64
	// TauKill is the instant at which all but the best attempt are killed.
	TauKill float64
	// PhiEst is the average progress fraction of an original attempt at
	// TauEst, given that it is a straggler. Used by Speculative-Resume
	// (work preserved by the new attempts). If zero, DefaultPhiEst is a
	// reasonable model-derived choice.
	PhiEst float64
}

// Validation errors.
var (
	ErrBadN        = errors.New("analysis: N must be >= 1")
	ErrBadDeadline = errors.New("analysis: deadline must exceed tmin")
	ErrBadTau      = errors.New("analysis: need 0 <= tauEst <= tauKill <= deadline")
	ErrBadPhi      = errors.New("analysis: phiEst must be in [0, 1)")
	ErrHeavyTail   = errors.New("analysis: beta must exceed 1 for finite expected cost")
)

// Validate reports whether the parameters are in the regime the closed forms
// cover.
func (p Params) Validate() error {
	if err := p.Task.Validate(); err != nil {
		return err
	}
	if p.N < 1 {
		return fmt.Errorf("%w: got %d", ErrBadN, p.N)
	}
	if !(p.Deadline > p.Task.TMin) {
		return fmt.Errorf("%w: D=%v tmin=%v", ErrBadDeadline, p.Deadline, p.Task.TMin)
	}
	if p.TauEst < 0 || p.TauKill < p.TauEst || p.TauKill > p.Deadline {
		return fmt.Errorf("%w: tauEst=%v tauKill=%v D=%v", ErrBadTau, p.TauEst, p.TauKill, p.Deadline)
	}
	if p.PhiEst < 0 || p.PhiEst >= 1 {
		return fmt.Errorf("%w: got %v", ErrBadPhi, p.PhiEst)
	}
	if p.Task.Beta <= 1 {
		return fmt.Errorf("%w: beta=%v", ErrHeavyTail, p.Task.Beta)
	}
	return nil
}

// DefaultPhiEst returns a model-consistent value for PhiEst: the expected
// progress tauEst/T of an original attempt at tauEst, conditioned on the
// attempt being a straggler (T > D). For T ~ Pareto(D, beta) (Lemma 3),
// E[1/T] = beta/((beta+1)*D), hence
//
//	E[tauEst/T | T > D] = tauEst * beta / ((beta+1) * D).
func (p Params) DefaultPhiEst() float64 {
	b := p.Task.Beta
	phi := p.TauEst * b / ((b + 1) * p.Deadline)
	return math.Min(phi, 0.999)
}

// phi returns the effective PhiEst, substituting the default when unset.
func (p Params) phi() float64 {
	if p.PhiEst > 0 {
		return p.PhiEst
	}
	return p.DefaultPhiEst()
}

// clampProb confines a probability expression to [0, 1]; the closed forms can
// exceed these bounds in degenerate corners (e.g. D - tauEst < tmin, where a
// freshly launched attempt can never meet the deadline).
func clampProb(p float64) float64 {
	switch {
	case p < 0:
		return 0
	case p > 1:
		return 1
	}
	return p
}

// pocdFromTaskFailure converts a per-task failure probability into a job
// PoCD: the job meets the deadline iff all N tasks do. (1-q)^N is
// math.Pow(1-q, N), bit for bit (see powN).
func pocdFromTaskFailure(q float64, n int) float64 {
	return powN(1-clampProb(q), n)
}
