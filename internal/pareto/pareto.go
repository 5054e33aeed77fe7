// Package pareto implements the Pareto (Type I) distribution together with
// the order-statistic and conditional-expectation machinery that the Chronos
// analysis (Theorems 1-8 of the paper) is built on.
//
// Task attempt execution times in Chronos are modelled as i.i.d.
// Pareto(tmin, beta) random variables: tmin is the minimum execution time and
// beta is the tail index. Heavier tails (smaller beta) produce more severe
// stragglers. The package also provides deterministic sub-streams for
// reproducible sampling and a small adaptive-quadrature routine used by the
// closed-form cost expressions that contain non-elementary integrals.
package pareto

import (
	"errors"
	"fmt"
	"math"
)

// Dist is a Pareto Type I distribution with scale TMin > 0 and shape Beta > 0.
//
// The density is f(t) = Beta * TMin^Beta / t^(Beta+1) for t >= TMin and 0
// otherwise.
type Dist struct {
	// TMin is the scale parameter: the minimum value the variable can take.
	TMin float64
	// Beta is the shape (tail index). Values in (1, 2) produce the
	// heavy-tailed regime studied in the paper (finite mean, infinite
	// variance for Beta <= 2).
	Beta float64
}

// ErrInvalidParams reports a Pareto distribution with non-positive scale or
// shape.
var ErrInvalidParams = errors.New("pareto: parameters must be positive")

// New validates the parameters and returns the distribution.
func New(tmin, beta float64) (Dist, error) {
	d := Dist{TMin: tmin, Beta: beta}
	if err := d.Validate(); err != nil {
		return Dist{}, err
	}
	return d, nil
}

// MustNew is New but panics on invalid parameters. Intended for package-level
// defaults and tests.
func MustNew(tmin, beta float64) Dist {
	d, err := New(tmin, beta)
	if err != nil {
		panic(err)
	}
	return d
}

// Validate reports whether the parameters define a proper distribution.
func (d Dist) Validate() error {
	if !(d.TMin > 0) || !(d.Beta > 0) || math.IsInf(d.TMin, 0) || math.IsInf(d.Beta, 0) {
		return fmt.Errorf("%w: tmin=%v beta=%v", ErrInvalidParams, d.TMin, d.Beta)
	}
	return nil
}

// Survival returns P(T > t) = (tmin/t)^beta for t >= tmin and 1 otherwise.
func (d Dist) Survival(t float64) float64 {
	if t <= d.TMin {
		return 1
	}
	return math.Pow(d.TMin/t, d.Beta)
}

// Mean returns E[T] = tmin*beta/(beta-1) for beta > 1 and +Inf otherwise.
func (d Dist) Mean() float64 {
	if d.Beta <= 1 {
		return math.Inf(1)
	}
	return d.TMin * d.Beta / (d.Beta - 1)
}

// FromUniform maps a uniform draw f in [0, 1) to a variate by
// inverse-transform sampling: TMin / u^(1/Beta) with u = 1-f, bit for bit
// what math.Pow gives.
func (d Dist) FromUniform(f float64) float64 {
	// 1-f is in (0, 1], avoiding a division by zero.
	u := 1 - f
	y := 1 / d.Beta
	// For u in (0, 1] and y in (0, 1) other than 1/2, math.Pow (the portable
	// one every port but s390x runs) reaches only these lines of its
	// general algorithm. Above 1/2 it raises u to the
	// exact y-1 and multiplies in u once, by its mantissa then its exponent:
	// the same rounding, since u^y >= u >= 2^-53 stays normal. Everything
	// else (y = 1/2 is its Sqrt case, Beta <= 1) is left to math.Pow.
	if u > 0 && u <= 1 {
		if y > 0.5 && y < 1 {
			return d.TMin / (math.Exp((y-1)*math.Log(u)) * u)
		}
		if y > 0 && y < 0.5 {
			return d.TMin / math.Exp(y*math.Log(u))
		}
	}
	return d.TMin / math.Pow(u, y)
}

// Scaled returns the distribution of c*T for c > 0, which is again Pareto
// with scale c*tmin and the same shape. This is how Speculative-Resume models
// the remaining work (1-phi)*T of a resumed task.
func (d Dist) Scaled(c float64) Dist {
	return Dist{TMin: c * d.TMin, Beta: d.Beta}
}

// ExpectedMin returns E[min(T_1,...,T_n)] = tmin*n*beta/(n*beta - 1), the
// statement of Lemma 1. It returns +Inf when n*beta <= 1.
func (d Dist) ExpectedMin(n int) float64 {
	nb := float64(n) * d.Beta
	if nb <= 1 {
		return math.Inf(1)
	}
	return d.TMin * nb / (nb - 1)
}

// MeanBelow returns E[T | T <= upper] for upper > tmin. This is the paper's
// "Case 1" expression (Theorems 4 and 6):
//
//	E(T | T <= D) = tmin*D*beta*(tmin^(beta-1) - D^(beta-1)) /
//	                ((1-beta)*(D^beta - tmin^beta))
//
// For beta == 1 the expression has a removable singularity handled via the
// logarithmic limit.
func (d Dist) MeanBelow(upper float64) float64 {
	if upper <= d.TMin {
		return d.TMin
	}
	b, tm := d.Beta, d.TMin
	if math.Abs(b-1) < 1e-9 {
		// E[T | T<=D] = tm*D*ln(D/tm) / (D - tm) for beta == 1.
		return tm * upper * math.Log(upper/tm) / (upper - tm)
	}
	pu := math.Pow(upper, b)
	num := tm * upper * b * (math.Pow(tm, b-1) - math.Pow(upper, b-1))
	den := (1 - b) * (pu - math.Pow(tm, b))
	if pu >= 0x1p-1022 && pu <= math.MaxFloat64 && !math.IsInf(num, 0) && den != 0 {
		return num / den
	}
	// D^beta has left float64 (beta*|log10 D| near 308) though the mean lies
	// in [tmin, D]: the same expression with the ratio tmin/D formed first.
	// Only here, so every value the published form can represent keeps its
	// bits.
	rho := tm / upper
	return tm * b / (b - 1) * (1 - math.Pow(rho, b-1)) / (1 - math.Pow(rho, b))
}

// String implements fmt.Stringer.
func (d Dist) String() string {
	return fmt.Sprintf("Pareto(tmin=%g, beta=%g)", d.TMin, d.Beta)
}
