package trace

import (
	"fmt"
	"math"

	"chronos/internal/pareto"
)

// SpotPrices is a piecewise-constant VM price series, standing in for the
// Amazon EC2 spot-price history the paper multiplies machine time by. Times
// are strictly increasing; Prices[i] applies on [Times[i], Times[i+1]).
type SpotPrices struct {
	Times  []float64
	Prices []float64
}

// Integral returns the integral of the price over [a, b] — the exact spot
// cost of one machine occupied over that interval. Prices extend constantly
// beyond both ends of the series.
func (s SpotPrices) Integral(a, b float64) float64 {
	if b < a {
		return -s.Integral(b, a)
	}
	var total float64
	// Walk the segments overlapping [a, b]. Segment i covers
	// [Times[i], Times[i+1]); the last segment extends to +inf, and
	// Prices[0] extends to -inf.
	for i := range s.Prices {
		segStart := math.Inf(-1)
		if i > 0 {
			segStart = s.Times[i]
		}
		segEnd := math.Inf(1)
		if i+1 < len(s.Times) {
			segEnd = s.Times[i+1]
		}
		lo := math.Max(a, segStart)
		hi := math.Min(b, segEnd)
		if hi > lo {
			total += s.Prices[i] * (hi - lo)
		}
	}
	return total
}

// SpotConfig shapes a synthetic mean-reverting spot-price series.
type SpotConfig struct {
	// Mean is the long-run price level (e.g. 0.0116 $/h for m4.large-like
	// instances, expressed per second in simulations if desired).
	Mean float64
	// Volatility is the per-step relative shock magnitude.
	Volatility float64
	// Reversion in (0, 1] pulls the price back toward Mean each step.
	Reversion float64
	// Step is the sampling interval in seconds.
	Step float64
	// Horizon is the series length in seconds.
	Horizon float64
	// Floor bounds the price from below as a fraction of Mean (default 0.2).
	Floor float64
	// Seed drives the shocks.
	Seed uint64
}

// GenerateSpotPrices synthesizes an EC2-like series: mean-reverting
// multiplicative random walk with a floor, mimicking the bursty-but-anchored
// behaviour of historical spot markets.
func GenerateSpotPrices(cfg SpotConfig) (SpotPrices, error) {
	if cfg.Mean <= 0 || cfg.Step <= 0 || cfg.Horizon < cfg.Step {
		return SpotPrices{}, fmt.Errorf("trace: bad spot config %+v", cfg)
	}
	if cfg.Reversion <= 0 || cfg.Reversion > 1 {
		return SpotPrices{}, fmt.Errorf("trace: reversion %v outside (0, 1]", cfg.Reversion)
	}
	floor := cfg.Floor
	if floor <= 0 {
		floor = 0.2
	}
	rng := pareto.NewStream(cfg.Seed, 0x5907)
	n := int(cfg.Horizon/cfg.Step) + 1
	s := SpotPrices{Times: make([]float64, n), Prices: make([]float64, n)}
	price := cfg.Mean
	for i := 0; i < n; i++ {
		s.Times[i] = float64(i) * cfg.Step
		s.Prices[i] = price
		shock := (rng.Float64()*2 - 1) * cfg.Volatility
		price += cfg.Reversion*(cfg.Mean-price) + cfg.Mean*shock
		if price < cfg.Mean*floor {
			price = cfg.Mean * floor
		}
	}
	return s, nil
}
