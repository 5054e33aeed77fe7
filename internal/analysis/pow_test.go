package analysis

import (
	"math"
	"math/rand/v2"
	"testing"

	"chronos/internal/race"
)

// powPairs is how many random (base, exponent) pairs each MatchesPow test
// draws: 10^7 at full size (make goldens), 10^5 under -short or -race.
func powPairs() int {
	if testing.Short() || race.Enabled {
		return 100_000
	}
	return 10_000_000
}

// logUniform draws a positive float64 whose binary exponent is uniform in
// [lo, hi) and whose mantissa is uniform.
func logUniform(rng *rand.Rand, lo, hi int) float64 {
	return math.Ldexp(1+rng.Float64(), lo+rng.IntN(hi-lo))
}

// powEdgeBases are the bases each fallback and branch edge of powBase and
// powN turns on: signed zeros, negatives, 1 and its neighbours, the
// subnormal and overflow ends, the infinities, NaN and exact powers of two.
var powEdgeBases = []float64{
	0, math.Copysign(0, -1), -1, -2.5, -0.5, 1, math.Nextafter(1, 0), math.Nextafter(1, 2),
	0.5, 2, 0x1p-1074, 0x1p-1022, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	1e-300, 1e300, 0.999999, 15, 0.3,
}

// TestPowBaseMatchesPow: a cached base's powers have math.Pow's bits, over
// the exponents the kernel takes (beta*r and beta*r-1 for beta in (1, 4]),
// over arbitrary positive exponents, large ones that overflow or underflow
// the result, and at every fallback edge.
func TestPowBaseMatchesPow(t *testing.T) {
	var b powBase
	check := func(x, y float64) {
		b.init(x)
		if got, want := b.pow(y), math.Pow(x, y); !sameBits(got, want) {
			t.Fatalf("powBase(%v).pow(%v) = %v (%#x), math.Pow gives %v (%#x)",
				x, y, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	// The exponents math.Pow answers before its general branch, those next
	// to them, and those at and past the 2^63 the replica stops at.
	edgeY := []float64{
		0, math.Copysign(0, -1), -1, -0.5, 0.5, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1),
		1, math.Nextafter(1, 0), math.Nextafter(1, 2), 1.5, 2, 3, 0x1p-1074, 0x1p52 + 0.5,
		0x1p63, math.Nextafter(0x1p63, 0), 0x1p64, 1e300, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for _, x := range powEdgeBases {
		for _, y := range edgeY {
			check(x, y)
		}
	}

	rng := rand.New(rand.NewPCG(44, 1))
	n := powPairs()
	for i := range n {
		var x, y float64
		switch i % 4 {
		case 0: // restartSurvivor's bases: tmin, D-tauEst, tmin/D; beta*r and beta*r-1
			x = logUniform(rng, -8, 12)
			y = (1 + 3*rng.Float64()) * float64(1+rng.IntN(1<<13))
			if i%8 == 0 {
				y--
			}
		case 1: // resumeSurvivor's 1-phi in (0, 1]
			x = 1 - rng.Float64()
			y = (1 + 3*rng.Float64()) * float64(1+rng.IntN(64))
		case 2: // any base, exponents up to 2^20
			x = logUniform(rng, -1074, 1024)
			y = logUniform(rng, -20, 20)
		default: // exponents whose result leaves float64, and past the squaring cut-off
			x = logUniform(rng, -64, 64)
			y = logUniform(rng, 20, 70)
		}
		check(x, y)
	}
}

// TestPowNMatchesPow: powN has math.Pow's bits for the (1-q)^N of
// pocdFromTaskFailure: bases just below 1 and anywhere in (0, 1], integer
// exponents over the serving range and far past it, and at every fallback
// edge.
func TestPowNMatchesPow(t *testing.T) {
	check := func(x float64, n int) {
		if got, want := powN(x, n), math.Pow(x, float64(n)); !sameBits(got, want) {
			t.Fatalf("powN(%v, %d) = %v (%#x), math.Pow gives %v (%#x)",
				x, n, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	edgeN := []int{
		math.MinInt64, -3, -1, 0, 1, 2, 3, 1<<12 + 1, 1<<53 - 1, 1 << 53, 1<<53 + 1, 1 << 62, math.MaxInt64,
	}
	for _, x := range powEdgeBases {
		for _, n := range edgeN {
			check(x, n)
		}
	}

	rng := rand.New(rand.NewPCG(44, 2))
	n := powPairs()
	for i := range n {
		var x float64
		switch i % 3 {
		case 0: // 1 - q for a small miss probability q
			x = 1 - logUniform(rng, -60, 0)/2
		case 1:
			x = rng.Float64()
		default:
			x = logUniform(rng, -1074, 1024)
		}
		k := 1 + rng.IntN(5000)
		if i%5 == 0 {
			k = int(logUniform(rng, 0, 53))
		}
		check(x, k)
	}
}
