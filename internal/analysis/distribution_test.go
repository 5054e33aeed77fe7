package analysis

import (
	"math"
	"sort"
	"testing"

	"chronos/internal/pareto"
)

// pocdAt evaluates PoCD with the deadline set to d, as DeadlineForPoCD's
// bisection does.
func pocdAt(s Strategy, p Params, r int, d float64) float64 {
	var e Evaluator
	return e.pocdAt(s, p, r, d)
}

func TestPoCDAtMatchesPoCD(t *testing.T) {
	p := testParams()
	for _, s := range Strategies() {
		m := NewModel(s, p)
		for r := 0; r <= 3; r++ {
			if got, want := pocdAt(s, p, r, p.Deadline), m.PoCD(r); math.Abs(got-want) > 1e-12 {
				t.Errorf("%v r=%d: pocdAt(D) = %v, PoCD = %v", s, r, got, want)
			}
		}
	}
}

// TestPoCDAtMonotone: the bisection needs PoCD non-decreasing in the
// deadline, across the fallback at tauKill too, and in [0, 1].
func TestPoCDAtMonotone(t *testing.T) {
	p := testParams()
	for _, s := range Strategies() {
		prev := -1.0
		for _, d := range []float64{5, 10, 20, 40, 61, 80, 100, 200, 1000, 1e6} {
			got := pocdAt(s, p, 2, d)
			if got < prev-1e-12 {
				t.Errorf("%v: PoCD not monotone at d=%v: %v < %v", s, d, got, prev)
			}
			if got < 0 || got > 1 {
				t.Errorf("%v: PoCD(%v) = %v", s, d, got)
			}
			prev = got
		}
	}
}

func TestPoCDAtEdges(t *testing.T) {
	p := testParams()
	if got := pocdAt(StrategyClone, p, 1, 5); got != 0 {
		t.Errorf("PoCD below tmin = %v, want 0", got)
	}
	for _, s := range Strategies() {
		if got := pocdAt(s, p, 2, 1e9); got < 0.999999 {
			t.Errorf("%v: PoCD at a huge deadline = %v, want ~1", s, got)
		}
	}
}

func TestDeadlineForPoCDInvertsPoCD(t *testing.T) {
	// PoCD jumps at tauKill for the reactive strategies (the speculative
	// survivor appears there), so the answer is the smallest deadline whose
	// PoCD reaches the target — it need not hit the target exactly.
	p := testParams()
	for _, s := range Strategies() {
		for _, target := range []float64{0.5, 0.9, 0.99} {
			d := DeadlineForPoCD(s, p, 2, target)
			if got := pocdAt(s, p, 2, d); got < target-1e-6 {
				t.Errorf("%v: PoCD at DeadlineForPoCD(%v) = %v below target", s, target, got)
			}
			// Minimality: just below d the PoCD is still under the target.
			if below := pocdAt(s, p, 2, d*(1-1e-3)); below > target+1e-6 {
				t.Errorf("%v: PoCD just below DeadlineForPoCD(%v) = %v already meets target",
					s, target, below)
			}
		}
	}
}

func TestDeadlineForPoCDEdges(t *testing.T) {
	p := testParams()
	if got := DeadlineForPoCD(StrategyResume, p, 1, 0); got != p.Task.TMin {
		t.Errorf("DeadlineForPoCD(0) = %v, want tmin", got)
	}
	if got := DeadlineForPoCD(StrategyResume, p, 1, 1); !math.IsInf(got, 1) {
		t.Errorf("DeadlineForPoCD(1) = %v, want +Inf", got)
	}
}

func TestDeadlineForPoCDIsSufficient(t *testing.T) {
	p := testParams()
	d := DeadlineForPoCD(StrategyResume, p, 2, 0.999)
	// Promise that deadline: the PoCD at it must reach the target.
	p.Deadline = d
	if got := NewModel(StrategyResume, p).PoCD(2); got < 0.999-1e-6 {
		t.Errorf("promised deadline %v only reaches PoCD %v", d, got)
	}
	// More extra attempts tighten the quotable deadline.
	if d4 := DeadlineForPoCD(StrategyResume, testParams(), 4, 0.999); d4 > d+1e-9 {
		t.Errorf("deadline with r=4 (%v) looser than with r=2 (%v)", d4, d)
	}
}

// EmpiricalCDF builds a step CDF from samples (here: Monte-Carlo job
// completion times) — the reference Clone's PoCD at each deadline is checked
// against. It has no production caller, so it lives with the test.
type EmpiricalCDF struct {
	sorted []float64
}

// NewEmpiricalCDF copies and sorts the samples.
func NewEmpiricalCDF(samples []float64) EmpiricalCDF {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return EmpiricalCDF{sorted: s}
}

// At returns the empirical P(X <= t).
func (e EmpiricalCDF) At(t float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.sorted, t)
	// SearchFloat64s finds the first index >= t; include equal values.
	for i < len(e.sorted) && e.sorted[i] == t {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// N returns the sample count.
func (e EmpiricalCDF) N() int { return len(e.sorted) }

// KolmogorovDistance returns the maximum absolute gap between the empirical
// CDF and a reference CDF evaluated at the sample points — the KS statistic
// that compares simulation and theory.
func (e EmpiricalCDF) KolmogorovDistance(ref func(float64) float64) float64 {
	worst := 0.0
	n := float64(len(e.sorted))
	for i, x := range e.sorted {
		r := ref(x)
		// Compare against both step edges.
		if d := math.Abs(float64(i)/n - r); d > worst {
			worst = d
		}
		if d := math.Abs(float64(i+1)/n - r); d > worst {
			worst = d
		}
	}
	return worst
}

func TestEmpiricalCDF(t *testing.T) {
	e := NewEmpiricalCDF([]float64{1, 2, 2, 3})
	tests := []struct {
		t    float64
		want float64
	}{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, tt := range tests {
		if got := e.At(tt.t); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
	if e.N() != 4 {
		t.Errorf("N = %d", e.N())
	}
	var empty EmpiricalCDF
	if empty.At(5) != 0 {
		t.Error("empty CDF not 0")
	}
}

// TestAnalyticCDFAgainstMonteCarlo draws full job completion times from the
// Clone model and checks Clone's PoCD at deadline x, which has no threshold
// that moves with x and so is the completion-time CDF at x, with a KS-style
// bound.
func TestAnalyticCDFAgainstMonteCarlo(t *testing.T) {
	p := testParams()
	const r = 1
	rng := pareto.NewStream(77)
	const jobs = 20000
	samples := make([]float64, jobs)
	for j := range samples {
		jobMax := 0.0
		for task := 0; task < p.N; task++ {
			w := math.Inf(1)
			for k := 0; k <= r; k++ {
				if x := p.Task.FromUniform(rng.Float64()); x < w {
					w = x
				}
			}
			if w > jobMax {
				jobMax = w
			}
		}
		samples[j] = jobMax
	}
	e := NewEmpiricalCDF(samples)
	// Evaluate only beyond tauKill, where the full closed form applies.
	dist := e.KolmogorovDistance(func(x float64) float64 {
		if x <= p.TauKill {
			return e.At(x) // skip the region the analytic CDF approximates
		}
		return pocdAt(StrategyClone, p, r, x)
	})
	if dist > 0.02 {
		t.Errorf("KS distance between analytic and simulated CDF = %v", dist)
	}
}
