package analysis

import (
	"math"
	"testing"

	"chronos/internal/pareto"
)

// testParams returns the canonical parameter point used across tests:
// tmin=10, beta=1.5, D=100, tauEst=30, tauKill=60, N=10.
func testParams() Params {
	return Params{
		N:        10,
		Deadline: 100,
		Task:     pareto.MustNew(10, 1.5),
		TauEst:   30,
		TauKill:  60,
	}
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Params)
		want   error
	}{
		{"valid", func(p *Params) {}, nil},
		{"zero N", func(p *Params) { p.N = 0 }, ErrBadN},
		{"deadline below tmin", func(p *Params) { p.Deadline = 5 }, ErrBadDeadline},
		{"negative tauEst", func(p *Params) { p.TauEst = -1 }, ErrBadTau},
		{"tauKill before tauEst", func(p *Params) { p.TauKill = 10 }, ErrBadTau},
		{"tauKill after deadline", func(p *Params) { p.TauKill = 200 }, ErrBadTau},
		{"phi out of range", func(p *Params) { p.PhiEst = 1.5 }, ErrBadPhi},
		{"beta too small", func(p *Params) { p.Task.Beta = 0.9 }, ErrHeavyTail},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := testParams()
			tt.mutate(&p)
			err := p.Validate()
			if tt.want == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !errorIs(err, tt.want) {
				t.Fatalf("Validate() = %v, want %v", err, tt.want)
			}
		})
	}
}

func errorIs(err, target error) bool {
	for e := err; e != nil; {
		if e == target {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

func TestDefaultPhiEst(t *testing.T) {
	p := testParams()
	phi := p.DefaultPhiEst()
	// tauEst*beta/((beta+1)*D) = 30*1.5/(2.5*100) = 0.18.
	if math.Abs(phi-0.18) > 1e-12 {
		t.Errorf("DefaultPhiEst() = %v, want 0.18", phi)
	}
	if phi < 0 || phi >= 1 {
		t.Errorf("DefaultPhiEst() = %v outside [0,1)", phi)
	}
}

func TestStrategyString(t *testing.T) {
	tests := []struct {
		s    Strategy
		want string
	}{
		{StrategyClone, "Clone"},
		{StrategyRestart, "Speculative-Restart"},
		{StrategyResume, "Speculative-Resume"},
		{Strategy(99), "Unknown"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.s, got, tt.want)
		}
	}
}

func TestNewModel(t *testing.T) {
	p := testParams()
	for _, s := range Strategies() {
		m := NewModel(s, p)
		if m.Name() != s.String() {
			t.Errorf("NewModel(%v).Name() = %q, want %q", s, m.Name(), s.String())
		}
		if m.Params() != p {
			t.Errorf("NewModel(%v).Params() does not round-trip", s)
		}
	}
}

func TestNewModelPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewModel(unknown) did not panic")
		}
	}()
	NewModel(Strategy(0), testParams())
}

func TestClonePoCDFormula(t *testing.T) {
	p := testParams()
	c := NewModel(StrategyClone, p)
	for r := 0; r <= 5; r++ {
		single := math.Pow(p.Task.TMin/p.Deadline, p.Task.Beta)
		want := math.Pow(1-math.Pow(single, float64(r+1)), float64(p.N))
		if got := c.PoCD(r); math.Abs(got-want) > 1e-12 {
			t.Errorf("Clone PoCD(%d) = %v, want %v", r, got, want)
		}
	}
}

// TestHadoopNSMatchesCloneAtZero: no speculation is one attempt per task, so
// Hadoop-NS is the r = 0 corner of the closed forms — Clone's PoCD(0) is
// P(every task's single attempt beats D), and with nothing restarted the
// machine time is N times the unconditional Pareto mean.
func TestHadoopNSMatchesCloneAtZero(t *testing.T) {
	p := testParams()
	want := math.Pow(1-p.Task.Survival(p.Deadline), float64(p.N))
	if got := NewModel(StrategyClone, p).PoCD(0); math.Abs(got-want) > 1e-12 {
		t.Errorf("Clone.PoCD(0) = %v, want (1-S(D))^N = %v", got, want)
	}
	if got, want := NewModel(StrategyRestart, p).MachineTime(0), float64(p.N)*p.Task.Mean(); got != want {
		t.Errorf("Restart.MachineTime(0) = %v, want N*E[T] = %v", got, want)
	}
}

func TestPoCDInUnitInterval(t *testing.T) {
	ps := []Params{
		testParams(),
		{N: 100, Deadline: 50, Task: pareto.MustNew(40, 1.1), TauEst: 5, TauKill: 9},
		{N: 1, Deadline: 11, Task: pareto.MustNew(10, 1.9), TauEst: 0.5, TauKill: 1},
	}
	for _, p := range ps {
		for _, m := range []Model{NewModel(StrategyClone, p), NewModel(StrategyRestart, p), NewModel(StrategyResume, p)} {
			for r := 0; r <= 8; r++ {
				got := m.PoCD(r)
				if got < 0 || got > 1 || math.IsNaN(got) {
					t.Errorf("%s PoCD(%d) = %v outside [0,1]", m.Name(), r, got)
				}
			}
		}
	}
}

func TestPoCDMonotoneInR(t *testing.T) {
	p := testParams()
	for _, m := range []Model{NewModel(StrategyClone, p), NewModel(StrategyRestart, p), NewModel(StrategyResume, p)} {
		prev := -1.0
		for r := 0; r <= 10; r++ {
			got := m.PoCD(r)
			if got < prev-1e-15 {
				t.Errorf("%s PoCD not monotone: PoCD(%d)=%v < PoCD(%d)=%v",
					m.Name(), r, got, r-1, prev)
			}
			prev = got
		}
	}
}

func TestPoCDMonotoneInDeadline(t *testing.T) {
	base := testParams()
	for _, m := range Strategies() {
		prev := -1.0
		for _, d := range []float64{70, 90, 110, 150, 300, 1000} {
			p := base
			p.Deadline = d
			got := NewModel(m, p).PoCD(2)
			if got < prev-1e-15 {
				t.Errorf("%v PoCD not monotone in D at D=%v: %v < %v", m, d, got, prev)
			}
			prev = got
		}
	}
}

// pocdAtR evaluates the three closed-form PoCDs at a common r, the quantities
// Theorem 7 orders.
func pocdAtR(p Params, r int) (clone, restart, resume float64) {
	return NewModel(StrategyClone, p).PoCD(r), NewModel(StrategyRestart, p).PoCD(r), NewModel(StrategyResume, p).PoCD(r)
}

// TestTheorem7Orderings checks R_Clone > R_S-Restart and
// R_S-Resume > R_S-Restart on a grid of parameters.
func TestTheorem7Orderings(t *testing.T) {
	for _, beta := range []float64{1.1, 1.5, 1.9} {
		for _, tauEst := range []float64{10, 30, 50} {
			for r := 1; r <= 5; r++ {
				p := testParams()
				p.Task.Beta = beta
				p.TauEst = tauEst
				clone, restart, resume := pocdAtR(p, r)
				if clone < restart {
					t.Errorf("beta=%v tauEst=%v r=%d: Clone %v < Restart %v",
						beta, tauEst, r, clone, restart)
				}
				if resume < restart {
					t.Errorf("beta=%v tauEst=%v r=%d: Resume %v < Restart %v",
						beta, tauEst, r, resume, restart)
				}
			}
		}
	}
}

// TestTheorem7Crossover verifies conclusion 3 of Theorem 7 by scanning r:
// Clone and Resume cross at most once. Resume leads at small r (a resumed
// attempt has only (1-phi) of the split left), Clone from some r on, and the
// order never flips back. A late tauEst pulls the crossover down to where
// float64 still separates the two PoCDs; at the default tauEst it lies past
// r = 12, where both have rounded to 1.
func TestTheorem7Crossover(t *testing.T) {
	for _, tc := range []struct {
		tauEst, tauKill float64
		wantCross       int // first r with Clone ahead; -1 for none in 0..12
	}{
		{tauEst: 30, tauKill: 60, wantCross: -1},
		{tauEst: 60, tauKill: 80, wantCross: 3},
	} {
		p := testParams()
		p.PhiEst, p.TauEst, p.TauKill = 0.2, tc.tauEst, tc.tauKill
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		cross := -1
		for r := 0; r <= 12; r++ {
			clone, _, resume := pocdAtR(p, r)
			switch {
			case cross < 0 && clone > resume+1e-12:
				cross = r
			case cross >= 0 && clone < resume-1e-12:
				t.Errorf("tauEst=%v r=%d: Resume %v back above Clone %v after the crossover at r=%d",
					tc.tauEst, r, resume, clone, cross)
			}
		}
		if cross != tc.wantCross {
			t.Errorf("tauEst=%v: Clone first ahead at r=%d, want %d", tc.tauEst, cross, tc.wantCross)
		}
	}
}

// TestGammaConcavity verifies the Theorem 8 thresholds: for every integer
// r >= ceil(Gamma), the PoCD second difference is non-positive (discrete
// concavity), and the per-task failure probability is below 1/N.
func TestGammaConcavity(t *testing.T) {
	grid := []Params{
		testParams(),
		{N: 50, Deadline: 80, Task: pareto.MustNew(10, 1.2), TauEst: 20, TauKill: 40},
		{N: 5, Deadline: 200, Task: pareto.MustNew(40, 1.8), TauEst: 50, TauKill: 100},
	}
	for _, p := range grid {
		for _, s := range Strategies() {
			m := NewModel(s, p)
			gamma := m.Gamma()
			start := int(math.Ceil(gamma))
			if start < 0 {
				start = 0
			}
			for r := start; r < start+10; r++ {
				d2 := m.PoCD(r+2) - 2*m.PoCD(r+1) + m.PoCD(r)
				if d2 > 1e-9 {
					t.Errorf("%s (N=%d): PoCD second difference at r=%d is %v > 0 (Gamma=%v)",
						m.Name(), p.N, r, d2, gamma)
				}
			}
		}
	}
}

func TestGammaSmall(t *testing.T) {
	// The paper observes Gamma is typically small (< 4). Check on the
	// canonical parameters.
	p := testParams()
	for _, s := range Strategies() {
		if g := NewModel(s, p).Gamma(); g > 4 {
			t.Errorf("%v Gamma = %v, expected < 4 on canonical params", s, g)
		}
	}
}

func TestMachineTimeIncreasingInR(t *testing.T) {
	p := testParams()
	for _, m := range []Model{NewModel(StrategyClone, p), NewModel(StrategyRestart, p), NewModel(StrategyResume, p)} {
		prev := 0.0
		for r := 1; r <= 8; r++ {
			got := m.MachineTime(r)
			if got <= prev {
				t.Errorf("%s MachineTime(%d) = %v not increasing (prev %v)",
					m.Name(), r, got, prev)
			}
			prev = got
		}
	}
}

func TestCloneMachineTimeFormula(t *testing.T) {
	p := testParams()
	c := NewModel(StrategyClone, p)
	for r := 0; r <= 4; r++ {
		brp := p.Task.Beta * float64(r+1)
		want := float64(p.N) * (float64(r)*p.TauKill + p.Task.TMin + p.Task.TMin/(brp-1))
		if got := c.MachineTime(r); math.Abs(got-want) > 1e-9 {
			t.Errorf("Clone MachineTime(%d) = %v, want %v", r, got, want)
		}
	}
}

func TestRestartMachineTimeAtZeroIsMean(t *testing.T) {
	p := testParams()
	want := float64(p.N) * p.Task.Mean()
	if got := NewModel(StrategyRestart, p).MachineTime(0); math.Abs(got-want) > 1e-9 {
		t.Errorf("Restart MachineTime(0) = %v, want N*mean = %v", got, want)
	}
}

func TestPowInt(t *testing.T) {
	tests := []struct {
		x    float64
		n    int
		want float64
	}{
		{2, 0, 1},
		{2, 1, 2},
		{2, 10, 1024},
		{0.5, 2, 0.25},
		{3, -2, 1.0 / 9},
	}
	for _, tt := range tests {
		if got := powInt(tt.x, tt.n); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("powInt(%v, %d) = %v, want %v", tt.x, tt.n, got, tt.want)
		}
	}
}

func TestClampProb(t *testing.T) {
	if clampProb(-0.5) != 0 || clampProb(1.5) != 1 || clampProb(0.3) != 0.3 {
		t.Error("clampProb misbehaves")
	}
}

// --- Monte-Carlo validation of the closed forms ---------------------------

const (
	mcJobs = 60000
	mcTol  = 0.02 // absolute tolerance on probabilities; relative on times
)

// mcClone simulates the Clone model directly: per task, r+1 i.i.d. Pareto
// draws; the task completes at the minimum; killed attempts are charged
// tauKill each.
func mcClone(p Params, r int, seed uint64) (pocd, machineTime float64) {
	rng := pareto.NewStream(seed)
	met := 0
	var totalTime float64
	for j := 0; j < mcJobs; j++ {
		jobMeets := true
		for task := 0; task < p.N; task++ {
			w := math.Inf(1)
			for k := 0; k <= r; k++ {
				if x := p.Task.FromUniform(rng.Float64()); x < w {
					w = x
				}
			}
			totalTime += float64(r)*p.TauKill + w
			if w > p.Deadline {
				jobMeets = false
			}
		}
		if jobMeets {
			met++
		}
	}
	return float64(met) / mcJobs, totalTime / mcJobs
}

func TestCloneVsMonteCarlo(t *testing.T) {
	p := testParams()
	// PoCD converges for any r; machine time is checked for r >= 1 where the
	// surviving minimum has finite variance (beta*(r+1) > 2).
	if gotP, _ := mcClone(p, 0, 11); math.Abs(gotP-NewModel(StrategyClone, p).PoCD(0)) > mcTol {
		t.Errorf("r=0: MC PoCD %v vs Theorem 1 %v", gotP, NewModel(StrategyClone, p).PoCD(0))
	}
	for _, r := range []int{1, 2, 4} {
		gotP, gotT := mcClone(p, r, 11)
		c := NewModel(StrategyClone, p)
		if wantP := c.PoCD(r); math.Abs(gotP-wantP) > mcTol {
			t.Errorf("r=%d: MC PoCD %v vs Theorem 1 %v", r, gotP, wantP)
		}
		wantT := c.MachineTime(r)
		if math.Abs(gotT-wantT)/wantT > mcTol {
			t.Errorf("r=%d: MC machine time %v vs Theorem 2 %v", r, gotT, wantT)
		}
	}
}

// mcRestart simulates Speculative-Restart with oracle straggler detection
// (the paper's analytic assumption): a task is a straggler iff its original
// attempt's execution time exceeds D.
func mcRestart(p Params, r int, seed uint64) (pocd, machineTime float64) {
	rng := pareto.NewStream(seed)
	met := 0
	var totalTime float64
	for j := 0; j < mcJobs; j++ {
		jobMeets := true
		for task := 0; task < p.N; task++ {
			t1 := p.Task.FromUniform(rng.Float64())
			if t1 <= p.Deadline {
				totalTime += t1
				continue
			}
			// Straggler: launch r restarts at tauEst; the survivor is the
			// attempt with the smallest post-tauEst remaining time.
			w := t1 - p.TauEst
			for k := 0; k < r; k++ {
				if x := p.Task.FromUniform(rng.Float64()); x < w {
					w = x
				}
			}
			totalTime += p.TauEst + float64(r)*(p.TauKill-p.TauEst) + w
			if p.TauEst+w > p.Deadline {
				jobMeets = false
			}
		}
		if jobMeets {
			met++
		}
	}
	return float64(met) / mcJobs, totalTime / mcJobs
}

func TestRestartVsMonteCarlo(t *testing.T) {
	p := testParams()
	for _, r := range []int{1, 2, 4} {
		gotP, gotT := mcRestart(p, r, 23)
		m := NewModel(StrategyRestart, p)
		if wantP := m.PoCD(r); math.Abs(gotP-wantP) > mcTol {
			t.Errorf("r=%d: MC PoCD %v vs Theorem 3 %v", r, gotP, wantP)
		}
		wantT := m.MachineTime(r)
		if math.Abs(gotT-wantT)/wantT > mcTol {
			t.Errorf("r=%d: MC machine time %v vs Theorem 4 %v", r, gotT, wantT)
		}
	}
}

// mcResume simulates Speculative-Resume with oracle detection: stragglers
// are killed at tauEst and r+1 attempts resume the remaining (1-phi) work.
func mcResume(p Params, r int, seed uint64) (pocd, machineTime float64) {
	rng := pareto.NewStream(seed)
	phi := p.phi()
	met := 0
	var totalTime float64
	for j := 0; j < mcJobs; j++ {
		jobMeets := true
		for task := 0; task < p.N; task++ {
			t1 := p.Task.FromUniform(rng.Float64())
			if t1 <= p.Deadline {
				totalTime += t1
				continue
			}
			w := math.Inf(1)
			for k := 0; k <= r; k++ {
				if x := (1 - phi) * p.Task.FromUniform(rng.Float64()); x < w {
					w = x
				}
			}
			totalTime += p.TauEst + float64(r)*(p.TauKill-p.TauEst) + w
			if p.TauEst+w > p.Deadline {
				jobMeets = false
			}
		}
		if jobMeets {
			met++
		}
	}
	return float64(met) / mcJobs, totalTime / mcJobs
}

func TestResumeVsMonteCarlo(t *testing.T) {
	p := testParams()
	p.PhiEst = 0.2
	for _, r := range []int{0, 1, 3} {
		gotP, gotT := mcResume(p, r, 37)
		m := NewModel(StrategyResume, p)
		if wantP := m.PoCD(r); math.Abs(gotP-wantP) > mcTol {
			t.Errorf("r=%d: MC PoCD %v vs Theorem 5 %v", r, gotP, wantP)
		}
		wantT := m.MachineTime(r)
		if math.Abs(gotT-wantT)/wantT > 2*mcTol {
			t.Errorf("r=%d: MC machine time %v vs Theorem 6 %v", r, gotT, wantT)
		}
	}
}

// TestRestartSurvivorNumericAgree cross-checks the closed-form survivor time
// against the direct quadrature fallback.
func TestRestartSurvivorNumericAgree(t *testing.T) {
	p := testParams()
	for _, r := range []int{1, 2, 5} {
		a := restartSurvivor(p, r)
		b := survivorTimeNumeric(p, r)
		if math.Abs(a-b)/b > 1e-4 {
			t.Errorf("r=%d: closed-form survivor %v vs numeric %v", r, a, b)
		}
	}
}

// TestRestartSurvivorNearDegenerate covers the band where D - tauEst is
// within a few percent of tmin, Gamma is in the hundreds or thousands and the
// optimizer probes r that large: tmin^(beta r) overflows in the elementary
// term (r > 205 here), then the tail series' sum overflows (r > 692), then its
// factor (tmin/D)^(beta r) underflows (r > 716) while the tail itself is still
// a few 1e-5 of the answer. Each used to yield NaN, +Inf or a silently dropped
// tail; all must agree with direct quadrature of the defining integral.
func TestRestartSurvivorNearDegenerate(t *testing.T) {
	for _, te := range []float64{9.9, 9.999, 9.999997} {
		p := testParams()
		p.Deadline, p.TauEst, p.TauKill = 20, te, 15
		for _, r := range []int{100, 205, 206, 394, 692, 702, 717, 2000, 8000} {
			got, want := restartSurvivor(p, r), survivorTimeNumeric(p, r)
			if !(math.Abs(got-want) <= 1e-9*want) {
				t.Errorf("tauEst=%v r=%d: survivor %.17g, quadrature %.17g", te, r, got, want)
			}
		}
	}
}

// TestDegenerateDeadline exercises the clamped corner where a restarted
// attempt cannot finish before the deadline at all.
func TestDegenerateDeadline(t *testing.T) {
	p := testParams()
	p.TauEst = 95 // D - tauEst = 5 < tmin = 10
	p.TauKill = 97
	re := NewModel(StrategyRestart, p)
	// Extra attempts are useless: PoCD must equal Hadoop-NS for any r.
	want := NewModel(StrategyClone, p).PoCD(0)
	for r := 0; r <= 3; r++ {
		if got := re.PoCD(r); math.Abs(got-want) > 1e-12 {
			t.Errorf("degenerate Restart PoCD(%d) = %v, want %v", r, got, want)
		}
	}
	// Machine time must still be finite and positive.
	if mt := re.MachineTime(2); mt <= 0 || math.IsInf(mt, 0) || math.IsNaN(mt) {
		t.Errorf("degenerate Restart MachineTime = %v", mt)
	}
}
