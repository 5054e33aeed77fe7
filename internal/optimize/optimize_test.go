package optimize

import (
	"errors"
	"math"
	"testing"

	"chronos/internal/analysis"
	"chronos/internal/pareto"
)

func testParams() analysis.Params {
	return analysis.Params{
		N:        10,
		Deadline: 100,
		Task:     pareto.MustNew(10, 1.5),
		TauEst:   30,
		TauKill:  60,
	}
}

func testConfig() Config {
	return Config{Theta: 1e-4, UnitPrice: 1, RMin: 0}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		want error
	}{
		{"valid", Config{Theta: 1e-4, UnitPrice: 1, RMin: 0.5}, nil},
		{"zero theta", Config{Theta: 0, UnitPrice: 1}, ErrBadTheta},
		{"negative theta", Config{Theta: -1, UnitPrice: 1}, ErrBadTheta},
		{"zero price", Config{Theta: 1, UnitPrice: 0}, ErrBadPrice},
		{"theta and price at the cap", Config{Theta: MaxEcon, UnitPrice: MaxEcon}, nil},
		{"theta above the cap", Config{Theta: math.Nextafter(MaxEcon, math.Inf(1)), UnitPrice: 1}, ErrBadTheta},
		{"price 1e308", Config{Theta: 1e-4, UnitPrice: 1e308}, ErrBadPrice},
		{"price +Inf", Config{Theta: 1e-4, UnitPrice: math.Inf(1)}, ErrBadPrice},
		{"rmin one", Config{Theta: 1, UnitPrice: 1, RMin: 1}, ErrBadRMin},
		{"rmin negative", Config{Theta: 1, UnitPrice: 1, RMin: -0.1}, ErrBadRMin},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if tt.want == nil && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if tt.want != nil && !errors.Is(err, tt.want) {
				t.Fatalf("Validate() = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestUtilityNegInfBelowRMin(t *testing.T) {
	cfg := Config{Theta: 1e-4, UnitPrice: 1, RMin: 0.99}
	m := analysis.NewModel(analysis.StrategyClone, testParams())
	if u := cfg.Utility(m, 0); !math.IsInf(u, -1) {
		t.Errorf("Utility below RMin = %v, want -Inf", u)
	}
}

func TestUtilityFromMeasured(t *testing.T) {
	cfg := Config{Theta: 1e-4, UnitPrice: 1, RMin: 0.1}
	got := cfg.UtilityFromMeasured(0.9, 1000)
	want := math.Log10(0.8) - 1e-4*1000
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("UtilityFromMeasured = %v, want %v", got, want)
	}
	if u := cfg.UtilityFromMeasured(0.05, 10); !math.IsInf(u, -1) {
		t.Errorf("UtilityFromMeasured below RMin = %v, want -Inf", u)
	}
}

// TestSolveMatchesBruteForce is the central optimality check (Theorem 9):
// Algorithm 1 must return exactly the brute-force argmax over a wide grid of
// parameters and tradeoff factors.
func TestSolveMatchesBruteForce(t *testing.T) {
	thetas := []float64{1e-6, 1e-5, 1e-4, 1e-3}
	betas := []float64{1.1, 1.3, 1.5, 1.9}
	ns := []int{1, 10, 100}
	for _, s := range analysis.Strategies() {
		for _, theta := range thetas {
			for _, beta := range betas {
				for _, n := range ns {
					p := testParams()
					p.Task.Beta = beta
					p.N = n
					cfg := Config{Theta: theta, UnitPrice: 1, RMin: 0}
					m := analysis.NewModel(s, p)

					got, err := Solve(m, cfg)
					if err != nil {
						t.Fatalf("%v theta=%v beta=%v n=%d: Solve error %v", s, theta, beta, n, err)
					}

					// Brute force over a generous range.
					bestU, bestR := math.Inf(-1), -1
					for r := 0; r <= 200; r++ {
						if u := cfg.Utility(m, r); u > bestU {
							bestU, bestR = u, r
						}
					}
					if got.R != bestR {
						t.Errorf("%v theta=%v beta=%v n=%d: Solve r=%d (U=%v), brute force r=%d (U=%v)",
							s, theta, beta, n, got.R, got.Utility, bestR, bestU)
					}
				}
			}
		}
	}
}

func TestSolveRejectsBadConfig(t *testing.T) {
	m := analysis.NewModel(analysis.StrategyClone, testParams())
	if _, err := Solve(m, Config{Theta: 0, UnitPrice: 1}); !errors.Is(err, ErrBadTheta) {
		t.Errorf("Solve with theta=0: err = %v, want ErrBadTheta", err)
	}
}

func TestSolveRejectsBadParams(t *testing.T) {
	p := testParams()
	p.N = 0
	m := analysis.NewModel(analysis.StrategyClone, p)
	if _, err := Solve(m, testConfig()); err == nil {
		t.Error("Solve with invalid params succeeded")
	}
}

func TestSolveInfeasible(t *testing.T) {
	p := testParams()
	p.Deadline = 10.5 // nearly impossible deadline
	p.TauEst = 0.2
	p.TauKill = 0.4
	cfg := Config{Theta: 1e-4, UnitPrice: 1, RMin: 0.999999}
	m := analysis.NewModel(analysis.StrategyRestart, p)
	if _, err := Solve(m, cfg); !errors.Is(err, ErrInfeasible) {
		t.Errorf("Solve on infeasible problem: err = %v, want ErrInfeasible", err)
	}
}

// TestOptimalRDecreasesInTheta reproduces the qualitative behaviour behind
// Figure 5: as theta grows, cost is weighted more and the optimal r shrinks.
func TestOptimalRDecreasesInTheta(t *testing.T) {
	p := testParams()
	for _, s := range analysis.Strategies() {
		prevR := math.MaxInt
		for _, theta := range []float64{1e-6, 1e-5, 1e-4, 1e-3} {
			res, err := Solve(analysis.NewModel(s, p), Config{Theta: theta, UnitPrice: 1})
			if err != nil {
				t.Fatalf("%v theta=%v: %v", s, theta, err)
			}
			if res.R > prevR {
				t.Errorf("%v: optimal r increased from %d to %d as theta grew to %v",
					s, prevR, res.R, theta)
			}
			prevR = res.R
		}
	}
}

// TestOptimalRDecreasesInBeta mirrors Figure 4's discussion: lighter tails
// (larger beta) need fewer speculative copies.
func TestOptimalRDecreasesInBeta(t *testing.T) {
	for _, s := range analysis.Strategies() {
		prevR := -1
		for _, beta := range []float64{1.1, 1.3, 1.5, 1.7, 1.9} {
			p := testParams()
			p.Task.Beta = beta
			// Deadline = 2x mean task time, as in the Figure 4 setup; the
			// tau instants scale with the deadline.
			p.Deadline = 2 * p.Task.Mean()
			p.TauEst = 0.3 * p.Deadline
			p.TauKill = 0.6 * p.Deadline
			res, err := Solve(analysis.NewModel(s, p), Config{Theta: 1e-4, UnitPrice: 1})
			if err != nil {
				t.Fatalf("%v beta=%v: %v", s, beta, err)
			}
			if prevR >= 0 && res.R > prevR+1 { // one step of slack for integer effects
				t.Errorf("%v: optimal r grew from %d to %d as beta grew to %v",
					s, prevR, res.R, beta)
			}
			prevR = res.R
		}
	}
}

func TestNonDeadlineSensitiveJobsGetZeroR(t *testing.T) {
	// Section V: as deadlines become very large, the optimal r approaches 0.
	// For the reactive strategies r=1 can remain marginally profitable even
	// then, because killing a heavy-tailed straggler truncates its unbounded
	// expected running time; allow r <= 1 for those.
	p := testParams()
	p.Deadline = 1e7
	p.TauKill = 1000
	p.TauEst = 500
	for _, s := range analysis.Strategies() {
		res, err := Solve(analysis.NewModel(s, p), testConfig())
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		limit := 0
		if s != analysis.StrategyClone {
			limit = 1
		}
		if res.R > limit {
			t.Errorf("%v: huge deadline should give r<=%d, got %d", s, limit, res.R)
		}
	}
}

func TestCurve(t *testing.T) {
	pts := Curve(analysis.StrategyClone, testParams(), testConfig(), 5)
	if len(pts) != 6 {
		t.Fatalf("Curve returned %d points, want 6", len(pts))
	}
	for i, pt := range pts {
		if pt.R != i {
			t.Errorf("point %d has R=%d", i, pt.R)
		}
		if pt.Cost != pt.MachineTime*testConfig().UnitPrice {
			t.Errorf("point %d cost inconsistent", i)
		}
		if i > 0 && pts[i].PoCD < pts[i-1].PoCD {
			t.Errorf("PoCD decreasing along curve at %d", i)
		}
	}
}

func TestMinCostForPoCD(t *testing.T) {
	m := analysis.NewModel(analysis.StrategyClone, testParams())
	res, err := MinCostForPoCD(analysis.StrategyClone, testParams(), testConfig(), 0.95)
	if err != nil {
		t.Fatalf("MinCostForPoCD: %v", err)
	}
	if res.PoCD < 0.95 {
		t.Errorf("result PoCD %v below target", res.PoCD)
	}
	if res.R > 0 && m.PoCD(res.R-1) >= 0.95 {
		t.Errorf("r=%d is not minimal", res.R)
	}
}

func TestMinCostForPoCDUnreachable(t *testing.T) {
	for _, target := range []float64{0, -1, 1.5} {
		if _, err := MinCostForPoCD(analysis.StrategyClone, testParams(), testConfig(), target); !errors.Is(err, ErrUnreachablePoCD) {
			t.Errorf("target %v: err = %v, want ErrUnreachablePoCD", target, err)
		}
	}
}

func TestConcaveArgmax(t *testing.T) {
	// Quadratic with peak at 17.
	u := func(r int) float64 { x := float64(r - 17); return -x * x }
	if got := concaveArgmax(u, 0, searchCap); got != 17 {
		t.Errorf("concaveArgmax = %d, want 17", got)
	}
	// Peak below start: start is returned.
	if got := concaveArgmax(u, 40, searchCap); got != 40 {
		t.Errorf("concaveArgmax with start past peak = %d, want 40", got)
	}
	// Peak exactly at start.
	if got := concaveArgmax(u, 17, searchCap); got != 17 {
		t.Errorf("concaveArgmax at peak = %d, want 17", got)
	}
	// Large peak found in logarithmic steps.
	u2 := func(r int) float64 { x := float64(r - 5000); return -x * x }
	if got := concaveArgmax(u2, 3, searchCap); got != 5000 {
		t.Errorf("concaveArgmax far peak = %d, want 5000", got)
	}
	// The limit: no evaluation at or past it, the last r it can confirm is
	// limit-2 (the peak test reads u(r+1)), and anything later is -1.
	for _, c := range []struct{ peak, start, limit, want int }{
		{98, 0, 100, 98}, {99, 0, 100, -1}, {5000, 3, 100, -1},
		{98, 98, 100, 98}, {50, 99, 100, -1}, {50, 200, 100, -1},
	} {
		bounded := func(r int) float64 {
			if r >= c.limit {
				t.Errorf("peak %d start %d: evaluated u(%d) with limit %d", c.peak, c.start, r, c.limit)
			}
			x := float64(r - c.peak)
			return -x * x
		}
		if got := concaveArgmax(bounded, c.start, c.limit); got != c.want {
			t.Errorf("concaveArgmax(peak %d, start %d, limit %d) = %d, want %d", c.peak, c.start, c.limit, got, c.want)
		}
	}
}
