package pareto

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*math.Max(1, scale)
}

// density is the Pareto pdf f(t) = beta * tmin^beta / t^(beta+1), the
// integrand the closed-form means are checked against by quadrature.
func density(d Dist, t float64) float64 {
	if t < d.TMin {
		return 0
	}
	return d.Beta * math.Pow(d.TMin, d.Beta) / math.Pow(t, d.Beta+1)
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		tmin    float64
		beta    float64
		wantErr bool
	}{
		{name: "valid", tmin: 1, beta: 1.5},
		{name: "zero tmin", tmin: 0, beta: 1.5, wantErr: true},
		{name: "negative tmin", tmin: -2, beta: 1.5, wantErr: true},
		{name: "zero beta", tmin: 1, beta: 0, wantErr: true},
		{name: "negative beta", tmin: 1, beta: -1, wantErr: true},
		{name: "nan tmin", tmin: math.NaN(), beta: 1.5, wantErr: true},
		{name: "inf beta", tmin: 1, beta: math.Inf(1), wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.tmin, tt.beta)
			if (err != nil) != tt.wantErr {
				t.Fatalf("New(%v, %v) error = %v, wantErr %v", tt.tmin, tt.beta, err, tt.wantErr)
			}
		})
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(0, 1) did not panic")
		}
	}()
	MustNew(0, 1)
}

// TestPDFIntegratesToOne: the density's tail mass beyond x is Survival(x) —
// all of it, 1, at and below tmin.
func TestPDFIntegratesToOne(t *testing.T) {
	for _, d := range []Dist{MustNew(1, 1.1), MustNew(10, 1.5), MustNew(40, 1.9), MustNew(2, 3)} {
		for _, x := range []float64{d.TMin / 2, d.TMin, 2 * d.TMin, 10 * d.TMin} {
			got := Integrate(func(t float64) float64 { return density(d, t) }, math.Max(x, d.TMin), math.Inf(1))
			if !almostEqual(got, d.Survival(x), 1e-6) {
				t.Errorf("%v: integral of the density beyond %v = %v, want Survival = %v", d, x, got, d.Survival(x))
			}
		}
	}
}

func TestCDFBelowTMinIsZero(t *testing.T) {
	d := MustNew(10, 1.5)
	if cdf := 1 - d.Survival(9.999); cdf != 0 {
		t.Errorf("CDF below tmin = %v, want 0", cdf)
	}
	if d.Survival(3) != 1 {
		t.Errorf("Survival below tmin = %v, want 1", d.Survival(3))
	}
}

// TestQuantileInvertsCDF: FromUniform is the quantile function — the sampler
// is inverse-transform — so the CDF, 1 - Survival, takes FromUniform(p) back
// to p.
func TestQuantileInvertsCDF(t *testing.T) {
	d := MustNew(7, 1.3)
	f := func(p float64) bool {
		p = math.Abs(math.Mod(p, 1)) // fold into [0,1)
		return almostEqual(1-d.Survival(d.FromUniform(p)), p, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantileEdges(t *testing.T) {
	d := MustNew(5, 2)
	if got := d.FromUniform(0); got != 5 {
		t.Errorf("FromUniform(0) = %v, want tmin = 5", got)
	}
	// The largest draw rand's Float64 can return still maps to a finite time.
	if got := d.FromUniform(1 - 0x1p-53); math.IsInf(got, 0) || got < 5 {
		t.Errorf("FromUniform(1 - 2^-53) = %v, want finite", got)
	}
}

func TestMeanMatchesQuadrature(t *testing.T) {
	// Betas well above 1 so the tail of t*f(t) decays fast enough for the
	// semi-infinite transform to capture it.
	for _, d := range []Dist{MustNew(40, 1.8), MustNew(3, 2.5), MustNew(1, 4)} {
		want := Integrate(func(t float64) float64 { return t * density(d, t) }, d.TMin, math.Inf(1))
		if !almostEqual(d.Mean(), want, 1e-3) {
			t.Errorf("%v: Mean() = %v, quadrature %v", d, d.Mean(), want)
		}
	}
}

func TestMeanInfiniteForSmallBeta(t *testing.T) {
	if got := MustNew(1, 0.9).Mean(); !math.IsInf(got, 1) {
		t.Errorf("Mean with beta<=1 = %v, want +Inf", got)
	}
}

func TestSampleRespectsSupport(t *testing.T) {
	d := MustNew(10, 1.5)
	rng := NewStream(1)
	for i := 0; i < 10000; i++ {
		if x := d.FromUniform(rng.Float64()); x < d.TMin || math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("FromUniform() = %v outside support [tmin, inf)", x)
		}
	}
}

func TestSampleEmpiricalCDF(t *testing.T) {
	d := MustNew(10, 1.5)
	rng := NewStream(42)
	const n = 200000
	var below float64
	cut := d.TMin / math.Pow(0.3, 1/d.Beta) // the 70th percentile: Survival(cut) = 0.3
	if !almostEqual(d.Survival(cut), 0.3, 1e-12) {
		t.Fatalf("Survival(%v) = %v, want 0.3", cut, d.Survival(cut))
	}
	for i := 0; i < n; i++ {
		if d.FromUniform(rng.Float64()) <= cut {
			below++
		}
	}
	if got := below / n; math.Abs(got-0.7) > 0.01 {
		t.Errorf("empirical CDF at q70 = %v, want ~0.7", got)
	}
}

func TestScaled(t *testing.T) {
	d := MustNew(10, 1.5)
	s := d.Scaled(0.25)
	if s.TMin != 2.5 || s.Beta != 1.5 {
		t.Errorf("Scaled(0.25) = %v, want Pareto(2.5, 1.5)", s)
	}
	// P(cT > t) must equal Scaled survival.
	for _, x := range []float64{3, 5, 50} {
		want := d.Survival(x / 0.25)
		if got := s.Survival(x); !almostEqual(got, want, 1e-12) {
			t.Errorf("Scaled survival(%v) = %v, want %v", x, got, want)
		}
	}
}

// TestConditionedAbove is Lemma 3: T given T > lo is again Pareto, with scale
// lo and the same shape — P(T > x | T > 25) = Survival(x)/Survival(25).
func TestConditionedAbove(t *testing.T) {
	d := MustNew(10, 1.5)
	c := MustNew(25, d.Beta)
	for _, x := range []float64{25, 40, 100} {
		want := d.Survival(x) / d.Survival(25)
		if got := c.Survival(x); !almostEqual(got, want, 1e-12) {
			t.Errorf("conditional survival(%v) = %v, want %v", x, got, want)
		}
	}
}

// TestMinOfDistribution: the minimum of n i.i.d. copies is Pareto(tmin,
// n*beta), the law ExpectedMin takes its mean from — P(min > t) = Survival(t)^n.
func TestMinOfDistribution(t *testing.T) {
	d := MustNew(10, 1.5)
	m := MustNew(d.TMin, 4*d.Beta)
	for _, x := range []float64{12, 30, 200} {
		want := math.Pow(d.Survival(x), 4)
		if got := m.Survival(x); !almostEqual(got, want, 1e-12) {
			t.Errorf("Pareto(tmin, 4*beta).Survival(%v) = %v, want %v", x, got, want)
		}
	}
	if got, want := m.Mean(), d.ExpectedMin(4); !almostEqual(got, want, 1e-12) {
		t.Errorf("mean of the minimum's law = %v, ExpectedMin(4) = %v", got, want)
	}
}

// TestLemma1 checks E[min of n] = tmin*n*beta/(n*beta-1) against Monte Carlo.
func TestLemma1(t *testing.T) {
	rng := NewStream(7)
	// n*beta must be comfortably above 2 so the sample mean of the minimum
	// has finite variance and Monte Carlo converges at the usual rate.
	for _, tc := range []struct {
		d Dist
		n int
	}{
		{MustNew(10, 3), 1},
		{MustNew(10, 1.5), 2},
		{MustNew(10, 1.5), 3},
		{MustNew(10, 1.5), 5},
	} {
		const trials = 100000
		var sum float64
		for i := 0; i < trials; i++ {
			m := math.Inf(1)
			for k := 0; k < tc.n; k++ {
				if x := tc.d.FromUniform(rng.Float64()); x < m {
					m = x
				}
			}
			sum += m
		}
		got := sum / trials
		want := tc.d.ExpectedMin(tc.n)
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("%v n=%d: Monte-Carlo E[min] = %v, Lemma 1 gives %v", tc.d, tc.n, got, want)
		}
	}
}

func TestExpectedMinInfinite(t *testing.T) {
	d := MustNew(1, 0.5)
	if got := d.ExpectedMin(2); got != math.Inf(1) {
		t.Errorf("ExpectedMin with n*beta<=1 = %v, want +Inf", got)
	}
}

func TestMeanBelowQuadrature(t *testing.T) {
	for _, tc := range []struct {
		d Dist
		D float64
	}{
		{MustNew(10, 1.5), 100},
		{MustNew(40, 1.2), 100},
		{MustNew(1, 1.0), 7}, // beta == 1 singular branch
		{MustNew(5, 2.5), 30},
	} {
		d, D := tc.d, tc.D
		// E[T | T<=D] = int_tmin^D t f(t) dt / P(T<=D).
		num := Integrate(func(t float64) float64 { return t * density(d, t) }, d.TMin, D)
		want := num / (1 - d.Survival(D))
		if got := d.MeanBelow(D); !almostEqual(got, want, 1e-6) {
			t.Errorf("%v MeanBelow(%v) = %v, quadrature %v", d, D, got, want)
		}
	}
}

// TestMeanBelowOutOfRange: once D^beta leaves float64 the published form is
// Inf/Inf; the ratio form must take over without a seam, agreeing with the
// published form just inside the range and staying inside [tmin, D] beyond it.
func TestMeanBelowOutOfRange(t *testing.T) {
	for _, beta := range []float64{153, 154, 155, 369, 5000} { // 100^154 ~ 1e308
		d := MustNew(85, beta)
		got := d.MeanBelow(100)
		rho := 85.0 / 100
		want := 85 * beta / (beta - 1) * (1 - math.Pow(rho, beta-1)) / (1 - math.Pow(rho, beta))
		if !(got >= 85 && got <= 100) || !almostEqual(got, want, 1e-12) {
			t.Errorf("beta=%v: MeanBelow(100) = %v, want %v", beta, got, want)
		}
	}
	if got := MustNew(1e-3, 120).MeanBelow(2e-3); !(got >= 1e-3 && got <= 2e-3) { // D^beta underflows
		t.Errorf("underflowing D^beta: MeanBelow = %v", got)
	}
}

func TestMeanBelowDegenerate(t *testing.T) {
	d := MustNew(10, 1.5)
	if got := d.MeanBelow(10); got != 10 {
		t.Errorf("MeanBelow(tmin) = %v, want tmin", got)
	}
}

// TestMeanAbove is Lemma 3's mean: E[T | T > 50] is the mean of Pareto(50,
// beta), infinite at beta <= 1.
func TestMeanAbove(t *testing.T) {
	if got, want := MustNew(50, 1.5).Mean(), 50*1.5/0.5; !almostEqual(got, want, 1e-12) {
		t.Errorf("mean of Pareto(50, 1.5) = %v, want %v", got, want)
	}
	if got := MustNew(5, 1).Mean(); !math.IsInf(got, 1) {
		t.Errorf("mean with beta<=1 = %v, want +Inf", got)
	}
}

// TestTotalExpectation verifies E[T] = E[T|T<=D]P(T<=D) + E[T|T>D]P(T>D),
// the decomposition Theorems 4 and 6 rely on; by Lemma 3 the law of T given
// T > D is Pareto(D, beta).
func TestTotalExpectation(t *testing.T) {
	d := MustNew(10, 1.5)
	D := 100.0
	got := d.MeanBelow(D)*(1-d.Survival(D)) + MustNew(D, d.Beta).Mean()*d.Survival(D)
	if !almostEqual(got, d.Mean(), 1e-9) {
		t.Errorf("law of total expectation: %v, want %v", got, d.Mean())
	}
}

func TestString(t *testing.T) {
	if got := MustNew(10, 1.5).String(); got != "Pareto(tmin=10, beta=1.5)" {
		t.Errorf("String() = %q", got)
	}
}

func TestIntegrateFinite(t *testing.T) {
	got := Integrate(func(x float64) float64 { return x * x }, 0, 3)
	if !almostEqual(got, 9, 1e-9) {
		t.Errorf("int_0^3 x^2 = %v, want 9", got)
	}
	if got := Integrate(math.Sin, 2, 2); got != 0 {
		t.Errorf("zero-width integral = %v, want 0", got)
	}
	// Reversed bounds negate.
	fwd := Integrate(math.Exp, 0, 1)
	rev := Integrate(math.Exp, 1, 0)
	if !almostEqual(fwd, -rev, 1e-9) {
		t.Errorf("reversed bounds: %v vs %v", fwd, rev)
	}
}

func TestIntegrateSemiInfinite(t *testing.T) {
	// int_0^inf e^-x dx = 1.
	got := Integrate(func(x float64) float64 { return math.Exp(-x) }, 0, math.Inf(1))
	if !almostEqual(got, 1, 1e-6) {
		t.Errorf("int_0^inf e^-x = %v, want 1", got)
	}
	// int_1^inf x^-2 dx = 1.
	got = Integrate(func(x float64) float64 { return 1 / (x * x) }, 1, math.Inf(1))
	if !almostEqual(got, 1, 1e-6) {
		t.Errorf("int_1^inf x^-2 = %v, want 1", got)
	}
}

func TestDeriveSeedDeterministic(t *testing.T) {
	a := DeriveSeed(1, 2, 3)
	b := DeriveSeed(1, 2, 3)
	if a != b {
		t.Error("DeriveSeed not deterministic")
	}
	if DeriveSeed(1, 2, 3) == DeriveSeed(1, 3, 2) {
		t.Error("DeriveSeed ignores key order")
	}
	if DeriveSeed(1) == DeriveSeed(2) {
		t.Error("DeriveSeed ignores root seed")
	}
}

func TestNewStreamIndependence(t *testing.T) {
	r1 := NewStream(1, 10)
	r2 := NewStream(1, 11)
	same := 0
	for i := 0; i < 100; i++ {
		if r1.Uint64() == r2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("streams with different keys collided %d/100 times", same)
	}
	// Identical keys replay identically.
	r3 := NewStream(1, 10)
	r4 := NewStream(1, 10)
	for i := 0; i < 100; i++ {
		if r3.Uint64() != r4.Uint64() {
			t.Fatal("identical streams diverged")
		}
	}
}

// TestStreamMatchesNewStream pins the value Stream to the *rand.Rand it
// stands in for: same keys, same draws, to the bit.
func TestStreamMatchesNewStream(t *testing.T) {
	d := MustNew(10, 1.5)
	for _, keys := range [][]uint64{nil, {0}, {3, 1, 4}, {1 << 63, 0, 0, 7}} {
		ref := NewStream(99, keys...)
		s := MakeStream(99, keys...)
		for i := 0; i < 50; i++ {
			if got, want := s.Float64(), ref.Float64(); got != want {
				t.Fatalf("keys %v draw %d: Stream %v, NewStream %v", keys, i, got, want)
			}
		}
		if got, want := d.FromUniform(s.Float64()), d.FromUniform(ref.Float64()); got != want {
			t.Fatalf("keys %v: FromUniform of Stream %v, of NewStream %v", keys, got, want)
		}
	}
}

func TestSurvivalMonotoneProperty(t *testing.T) {
	d := MustNew(3, 1.7)
	f := func(a, b float64) bool {
		a, b = math.Abs(a)+3, math.Abs(b)+3
		if a > b {
			a, b = b, a
		}
		return d.Survival(a) >= d.Survival(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
