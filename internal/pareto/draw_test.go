package pareto

import (
	"math"
	"math/rand/v2"
	"testing"

	"chronos/internal/race"
)

// powDraw is FromUniform written as the published inverse transform, with
// math.Pow.
func powDraw(d Dist, f float64) float64 { return d.TMin / math.Pow(1-f, 1/d.Beta) }

// gridDraw returns f = k/2^53 as Stream.Float64 makes it. Every other call
// it spreads u = 1-f log-uniformly down to 2^-53, so the far tail, which a
// uniform f almost never reaches, is drawn as often as the body.
func gridDraw(rng *rand.Rand, tail bool) float64 {
	k := rng.Uint64() >> 11
	if tail {
		k = 1<<53 - 1 - k>>rng.UintN(53)
	}
	return float64(k) / (1 << 53)
}

// TestFromUniformMatchesPow: FromUniform's draw has math.Pow's bits, on the
// sampler's own grid of f, for every Beta a job can have, and at the edges
// of each branch.
func TestFromUniformMatchesPow(t *testing.T) {
	check := func(d Dist, f float64) {
		if got, want := d.FromUniform(f), powDraw(d, f); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v.FromUniform(%v) = %v (%#x), math.Pow gives %v (%#x)",
				d, f, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	rng := rand.New(rand.NewPCG(38, 1))

	// u = 1 and u = 2^-53 at the ends of the grid; 1/Beta = 1/2 (Pow's Sqrt
	// case) and a step either side of it, just below 1 and near 0; and the
	// Beta <= 1 that FromUniform leaves to math.Pow.
	edgeF := []float64{0, 0x1p-53, 0.5, 1 - 0x1p-52, 1 - 0x1p-53}
	edgeBeta := []float64{2, math.Nextafter(2, 0), math.Nextafter(2, 3), 1 + 0x1p-40, 4, 1e6, 0.5, 1}
	for _, beta := range edgeBeta {
		d := Dist{TMin: 10, Beta: beta}
		for _, f := range edgeF {
			check(d, f)
		}
		for i := range 1000 {
			check(d, gridDraw(rng, i%2 == 1))
		}
	}

	n := 10_000_000
	if testing.Short() || race.Enabled {
		n = 100_000
	}
	for i := range n {
		d := Dist{TMin: 0.5 + 100*rng.Float64(), Beta: 4 - 3*rng.Float64()} // Beta in (1, 4]
		check(d, gridDraw(rng, i%2 == 1))
	}
}

var drawSink float64

// BenchmarkParetoDraw times one attempt's draw by FromUniform and by the
// math.Pow expression it computes, on the same inputs: Pareto(10, Beta)
// with Beta over (1, 4] and f on the sampler's grid.
func BenchmarkParetoDraw(b *testing.B) {
	const n = 4096
	rng := rand.New(rand.NewPCG(1, 2))
	fs, ds := make([]float64, n), make([]Dist, n)
	for i := range fs {
		fs[i], ds[i] = gridDraw(rng, false), Dist{TMin: 10, Beta: 4 - 3*rng.Float64()}
	}
	for _, draw := range []struct {
		name string
		fn   func(Dist, float64) float64
	}{{"FromUniform", Dist.FromUniform}, {"Pow", powDraw}} {
		b.Run(draw.name, func(b *testing.B) {
			s := 0.0
			for i := 0; i < b.N; i++ {
				s += draw.fn(ds[i&(n-1)], fs[i&(n-1)])
			}
			drawSink = s
		})
	}
}
