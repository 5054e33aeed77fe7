package optimize

import (
	"errors"
	"math"
	"testing"

	"chronos/internal/analysis"
	"chronos/internal/pareto"
)

// countingModel wraps a model and counts underlying evaluations.
type countingModel struct {
	analysis.Model
	pocdCalls, mtCalls int
}

func (c *countingModel) PoCD(r int) float64 {
	c.pocdCalls++
	return c.Model.PoCD(r)
}

func (c *countingModel) MachineTime(r int) float64 {
	c.mtCalls++
	return c.Model.MachineTime(r)
}

func testModel(t *testing.T) analysis.Model {
	t.Helper()
	return analysis.NewModel(analysis.StrategyResume, analysis.Params{
		N: 100, Deadline: 100, Task: pareto.MustNew(10, 1.5),
		TauEst: 30, TauKill: 60,
	})
}

// TestMemoizeTransparent verifies the wrapper returns identical values.
func TestMemoizeTransparent(t *testing.T) {
	base := testModel(t)
	memo := Memoize(base)
	for r := 0; r <= 8; r++ {
		if got, want := memo.PoCD(r), base.PoCD(r); got != want {
			t.Errorf("PoCD(%d): memoized %v != direct %v", r, got, want)
		}
		if got, want := memo.MachineTime(r), base.MachineTime(r); got != want {
			t.Errorf("MachineTime(%d): memoized %v != direct %v", r, got, want)
		}
	}
}

// TestMemoizeCachesRepeats verifies each (r) is evaluated at most once.
func TestMemoizeCachesRepeats(t *testing.T) {
	counter := &countingModel{Model: testModel(t)}
	memo := Memoize(counter)
	for i := 0; i < 10; i++ {
		memo.PoCD(3)
		memo.MachineTime(3)
	}
	if counter.pocdCalls != 1 || counter.mtCalls != 1 {
		t.Errorf("got %d PoCD / %d MachineTime evaluations, want 1 / 1",
			counter.pocdCalls, counter.mtCalls)
	}
	if again := Memoize(memo); again != memo {
		t.Error("Memoize(Memoize(m)) should return the same wrapper")
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
