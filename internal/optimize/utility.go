// Package optimize implements the joint PoCD / cost optimization of the
// Chronos paper (Section V): maximize the net utility
//
//	U(r) = log10(R(r) - Rmin) - theta * C * E(T)
//
// over the integer number r >= 0 of extra (clone/speculative) attempts,
// where R(r) is the strategy's PoCD and E(T) its expected machine running
// time. Algorithm 1 of the paper is implemented exactly: a gradient-based
// search on the region r > Gamma where the objective is provably concave
// (Theorem 8), plus an exhaustive scan of the finitely many integers below
// Gamma (Theorem 9 guarantees global optimality of the combination).
package optimize

import (
	"errors"
	"fmt"
	"math"

	"chronos/internal/analysis"
)

// Config carries the economic side of the optimization.
type Config struct {
	// Theta is the tradeoff factor between PoCD utility and execution cost.
	// Larger values weigh cost more heavily. Must be positive: with
	// theta == 0 the objective is unbounded in r.
	Theta float64
	// UnitPrice is the usage-based VM price C per unit machine time (e.g.
	// the average EC2 spot price for the subscribed VM type). Theta and
	// UnitPrice must not exceed MaxEcon.
	UnitPrice float64
	// RMin is the minimum required PoCD; the utility drops to -Inf when
	// R(r) <= RMin. The paper uses the PoCD of Hadoop-NS as RMin in its
	// testbed experiments. May be zero.
	RMin float64
}

// MaxEcon caps theta and the unit price. Inside it, and inside the serving
// bounds on tasks and task times, no cost or utility leaves float64, so
// every plan can be encoded.
const MaxEcon = 1e6

// Validation errors.
var (
	ErrBadTheta = errors.New("optimize: theta must be in (0, 1e+06]")
	ErrBadPrice = errors.New("optimize: unit price must be in (0, 1e+06]")
	ErrBadRMin  = errors.New("optimize: rmin must be in [0, 1)")
	// ErrInfeasible reports that no r achieves PoCD above RMin, so every
	// utility value is -Inf.
	ErrInfeasible = errors.New("optimize: no r achieves PoCD above RMin")
	// ErrNaNBudget rejects a machine-time budget that is not a number: every
	// comparison against it is false, so it would read as "everything fits".
	ErrNaNBudget = errors.New("optimize: budget is NaN")
)

// Validate reports whether the configuration yields a well-posed problem.
func (c Config) Validate() error {
	if !(c.Theta > 0 && c.Theta <= MaxEcon) {
		return fmt.Errorf("%w: got %v", ErrBadTheta, c.Theta)
	}
	if !(c.UnitPrice > 0 && c.UnitPrice <= MaxEcon) {
		return fmt.Errorf("%w: got %v", ErrBadPrice, c.UnitPrice)
	}
	if c.RMin < 0 || c.RMin >= 1 {
		return fmt.Errorf("%w: got %v", ErrBadRMin, c.RMin)
	}
	return nil
}

// Utility evaluates the net utility U(r) for the given analytic model.
// Returns -Inf when the PoCD does not exceed RMin. Goldens and frontier
// tables hold its bits: c.Theta*c.UnitPrice*mt associates left, and changing
// the association changes low-order bits.
func (c Config) Utility(m analysis.Model, r int) float64 {
	pocd := m.PoCD(r)
	if pocd <= c.RMin {
		return math.Inf(-1)
	}
	return math.Log10(pocd-c.RMin) - c.Theta*c.UnitPrice*m.MachineTime(r)
}

// UtilityFromMeasured computes the same net utility from measured PoCD and
// cost (price-weighted machine time), as the evaluation section does for
// simulated and testbed runs.
func (c Config) UtilityFromMeasured(pocd, cost float64) float64 {
	if pocd <= c.RMin {
		return math.Inf(-1)
	}
	return math.Log10(pocd-c.RMin) - c.Theta*cost
}

// Point is one (r, PoCD, machine time, utility) sample of the tradeoff
// curve.
type Point struct {
	R           int
	PoCD        float64
	MachineTime float64
	Cost        float64 // UnitPrice * MachineTime
	Utility     float64
}

// Curve evaluates the tradeoff curve for r = 0..maxR inclusive (empty for a
// negative maxR): the PoCD/cost frontier of Section V, each closed form
// evaluated once per r.
func Curve(s analysis.Strategy, p analysis.Params, cfg Config, maxR int) []Point {
	mm := acquireStrategy(s, p)
	defer mm.release()
	pts := make([]Point, 0, max(maxR+1, 0))
	for r := 0; r <= maxR; r++ {
		pts = append(pts, mm.pointAt(cfg, r))
	}
	return pts
}
