package optimize

import (
	"errors"
	"math"
	"testing"

	"chronos/internal/analysis"
	"chronos/internal/pareto"
)

// countingModel wraps a model and counts underlying evaluations, in total and
// per r.
type countingModel struct {
	analysis.Model
	pocdCalls, mtCalls int
	pocdAt, mtAt       map[int]int
}

func (c *countingModel) PoCD(r int) float64 {
	c.pocdCalls++
	if c.pocdAt == nil {
		c.pocdAt = map[int]int{}
	}
	c.pocdAt[r]++
	return c.Model.PoCD(r)
}

func (c *countingModel) MachineTime(r int) float64 {
	c.mtCalls++
	if c.mtAt == nil {
		c.mtAt = map[int]int{}
	}
	c.mtAt[r]++
	return c.Model.MachineTime(r)
}

func testModel(t *testing.T) analysis.Model {
	t.Helper()
	return analysis.NewModel(analysis.StrategyResume, analysis.Params{
		N: 100, Deadline: 100, Task: pareto.MustNew(10, 1.5),
		TauEst: 30, TauKill: 60,
	})
}

// TestMemoizeCachesRepeats verifies a solve evaluates each closed form at
// most once per r, although bracketing, bisection, the Phase 2 scan and the
// result assembly all revisit r values — and that what it returns is what the
// model says at that r.
func TestMemoizeCachesRepeats(t *testing.T) {
	for _, cfg := range []Config{testConfig(), {Theta: 1e-6, UnitPrice: 1, RMin: 0.9}} {
		counter := &countingModel{Model: testModel(t)}
		res, err := Solve(counter, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if counter.pocdCalls < 3 {
			t.Fatalf("only %d PoCD evaluations: the fake is not being driven", counter.pocdCalls)
		}
		for r, n := range counter.pocdAt {
			if n > 1 || counter.mtAt[r] > 1 {
				t.Errorf("rmin=%v r=%d: %d PoCD / %d MachineTime evaluations, want at most 1 each",
					cfg.RMin, r, n, counter.mtAt[r])
			}
		}
		if m := counter.Model; res.PoCD != m.PoCD(res.R) || res.MachineTime != m.MachineTime(res.R) ||
			res.Utility != cfg.Utility(m, res.R) {
			t.Errorf("rmin=%v: Solve = %+v, not the model's values at r=%d", cfg.RMin, res, res.R)
		}
	}
}

// TestSolveBoundedWork: Gamma grows like 1/(D - tauEst - tmin), and Phase 2
// scans every integer below it. One valid request with D - tauEst a few
// millionths above tmin used to cost 13 million closed-form evaluations (and
// as many overflow-map entries); the search cap bounds both phases, so such a
// solve fails closed at once and one just inside the cap stays cheap.
func TestSolveBoundedWork(t *testing.T) {
	for _, c := range []struct {
		tauEst float64
		capped bool
	}{
		{9.999997, true}, // Gamma ~ 13e6
		{9.9951, false},  // Gamma ~ 7,980: the dearest solve the cap admits
		{9.9, false},     // Gamma ~ 390
	} {
		counter := &countingModel{Model: analysis.NewModel(analysis.StrategyRestart, analysis.Params{
			N: 1000, Deadline: 20, Task: pareto.MustNew(10, 1.5), TauEst: c.tauEst, TauKill: 15,
		})}
		res, err := Solve(counter, testConfig())
		if c.capped {
			if !errors.Is(err, ErrSearchCap) || !errors.Is(err, ErrInfeasible) {
				t.Errorf("tauEst=%v: err = %v, want ErrSearchCap (which is ErrInfeasible)", c.tauEst, err)
			}
		} else if err != nil || res.R >= searchCap || math.IsNaN(res.MachineTime) {
			t.Errorf("tauEst=%v: Solve = %+v, %v", c.tauEst, res, err)
		}
		if calls := counter.pocdCalls + counter.mtCalls; calls > 2*searchCap+64 {
			t.Errorf("tauEst=%v: %d closed-form evaluations, want <= %d", c.tauEst, calls, 2*searchCap+64)
		}
	}
}

// TestBatchSolveMemoized verifies the batch allocator does not re-evaluate
// the closed forms more than once per (job, r) pair.
func TestBatchSolveMemoized(t *testing.T) {
	counters := make([]*countingModel, 4)
	jobs := make([]BatchJob, 4)
	for i := range jobs {
		counters[i] = &countingModel{Model: testModel(t)}
		jobs[i] = BatchJob{Model: counters[i]}
	}
	results, err := BatchSolve(jobs, 40000)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		// Each distinct r in 0..R+1 is evaluated at most once per closed
		// form (the loop probes one step past the final grant).
		maxCalls := res.R + 2
		if counters[i].pocdCalls > maxCalls || counters[i].mtCalls > maxCalls {
			t.Errorf("job %d (r=%d): %d PoCD / %d MachineTime evaluations, want <= %d each",
				i, res.R, counters[i].pocdCalls, counters[i].mtCalls, maxCalls)
		}
	}
}
