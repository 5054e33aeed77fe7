package analysis

import "math"

// Every Chronos strategy has a per-task deadline-miss probability of the
// geometric form
//
//	q(r) = A * rho^(r+c),  0 < rho < 1,
//
// (Clone: A=1, rho=(tmin/D)^beta, c=1; S-Restart: A=(tmin/D)^beta,
// rho=(tmin/(D-tauEst))^beta, c=0; S-Resume: A=(tmin/D)^beta,
// rho=((1-phi)*tmin/(D-tauEst))^beta, c=1).
//
// The job PoCD R(r) = (1-q(r))^N is concave in r exactly when q(r) < 1/N
// (the second derivative of (1-A*e^{x ln rho})^N changes sign at q = 1/N).
// Theorem 8 states these thresholds per strategy; concavityThreshold solves
// q(r) = 1/N for r in the general form.
//
// Note: the published expression for Gamma_{S-Resume} (Eq. 29 of the paper)
// carries a sign typo — applying it literally would make PoCD "concave" for
// all r >= 0 even when q(0) > 1/N. We implement the threshold derived
// directly from the concavity condition q(r) < 1/N, which reproduces the
// paper's Gamma_Clone (Eq. 27) and Gamma_{S-Restart} (Eq. 28) exactly.
//
// lnNA is ln(N*A), taken by the caller: the reactive strategies share their
// A, so one Log serves both.
func concavityThreshold(a, rho, c, lnNA float64) float64 {
	if rho <= 0 || rho >= 1 || a <= 0 {
		return -1 // degenerate: treat as concave everywhere relevant
	}
	// Solve A * rho^(r+c) = 1/N  =>  r = (-ln(N*A))/ln(rho) - c.
	r := -lnNA/math.Log(rho) - c
	if math.IsNaN(r) {
		return -1
	}
	return r
}
