package analysis

import (
	"math"
	"sort"
	"testing"

	"chronos/internal/pareto"
)

func TestCompletionCDFMatchesPoCDAtDeadline(t *testing.T) {
	p := testParams()
	for _, s := range Strategies() {
		m := NewModel(s, p)
		for r := 0; r <= 3; r++ {
			if got, want := CompletionCDF(s, p, r, p.Deadline), m.PoCD(r); math.Abs(got-want) > 1e-12 {
				t.Errorf("%v r=%d: CDF(D) = %v, PoCD = %v", s, r, got, want)
			}
		}
	}
}

func TestCompletionCDFMonotone(t *testing.T) {
	p := testParams()
	for _, s := range Strategies() {
		prev := -1.0
		for _, x := range []float64{5, 10, 20, 40, 61, 80, 100, 200, 1000, 1e6} {
			got := CompletionCDF(s, p, 2, x)
			if got < prev-1e-12 {
				t.Errorf("%v: CDF not monotone at t=%v: %v < %v", s, x, got, prev)
			}
			if got < 0 || got > 1 {
				t.Errorf("%v: CDF(%v) = %v", s, x, got)
			}
			prev = got
		}
	}
}

func TestCompletionCDFEdges(t *testing.T) {
	p := testParams()
	if got := CompletionCDF(StrategyClone, p, 1, 5); got != 0 {
		t.Errorf("CDF below tmin = %v, want 0", got)
	}
	if got := CompletionCDF(StrategyClone, p, 1, 1e9); got < 0.999999 {
		t.Errorf("CDF at huge t = %v, want ~1", got)
	}
}

func TestCompletionQuantileInvertsCDF(t *testing.T) {
	// The modeled CDF jumps at tauKill for the reactive strategies (the
	// speculative survivor appears there), so the quantile is the smallest
	// t with CDF(t) >= prob — it need not hit prob exactly.
	p := testParams()
	for _, s := range Strategies() {
		for _, prob := range []float64{0.5, 0.9, 0.99} {
			q := CompletionQuantile(s, p, 2, prob)
			if got := CompletionCDF(s, p, 2, q); got < prob-1e-6 {
				t.Errorf("%v: CDF(quantile(%v)) = %v below target", s, prob, got)
			}
			// Minimality: just below q the CDF is still under the target.
			if below := CompletionCDF(s, p, 2, q*(1-1e-3)); below > prob+1e-6 {
				t.Errorf("%v: CDF just below quantile(%v) = %v already meets target",
					s, prob, below)
			}
		}
	}
}

func TestCompletionQuantileEdges(t *testing.T) {
	p := testParams()
	if got := CompletionQuantile(StrategyResume, p, 1, 0); got != p.Task.TMin {
		t.Errorf("quantile(0) = %v, want tmin", got)
	}
	if got := CompletionQuantile(StrategyResume, p, 1, 1); !math.IsInf(got, 1) {
		t.Errorf("quantile(1) = %v, want +Inf", got)
	}
}

func TestDeadlineForPoCDIsSufficient(t *testing.T) {
	p := testParams()
	d := DeadlineForPoCD(StrategyResume, p, 2, 0.999)
	// Promise that deadline: the PoCD at it must reach the target.
	if got := CompletionCDF(StrategyResume, p, 2, d); got < 0.999-1e-6 {
		t.Errorf("promised deadline %v only reaches PoCD %v", d, got)
	}
	// More extra attempts tighten the quotable deadline.
	if d4 := DeadlineForPoCD(StrategyResume, p, 4, 0.999); d4 > d+1e-9 {
		t.Errorf("deadline with r=4 (%v) looser than with r=2 (%v)", d4, d)
	}
}

// EmpiricalCDF builds a step CDF from samples (here: Monte-Carlo job
// completion times) — the reference the analytic CompletionCDF is checked
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
// Clone model and checks the analytic CDF with a KS-style bound.
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
		return CompletionCDF(StrategyClone, p, r, x)
	})
	if dist > 0.02 {
		t.Errorf("KS distance between analytic and simulated CDF = %v", dist)
	}
}
