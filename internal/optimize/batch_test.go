package optimize

import (
	"cmp"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"chronos/internal/analysis"
	"chronos/internal/pareto"
	"chronos/internal/race"
)

func batchJob(n int, deadline float64, s analysis.Strategy) BatchJob {
	return BatchJob{
		Model: analysis.NewModel(s, analysis.Params{
			N:        n,
			Deadline: deadline,
			Task:     pareto.MustNew(10, 1.5),
			TauEst:   0.2 * deadline,
			TauKill:  0.4 * deadline,
		}),
	}
}

func TestBatchSolveRespectsBudget(t *testing.T) {
	jobs := []BatchJob{
		batchJob(10, 100, analysis.StrategyClone),
		batchJob(20, 80, analysis.StrategyResume),
		batchJob(5, 150, analysis.StrategyRestart),
	}
	var base float64
	for _, j := range jobs {
		base += j.Model.MachineTime(0)
	}
	budget := base * 1.5
	results, err := BatchSolve(jobs, budget)
	if err != nil {
		t.Fatal(err)
	}
	var spent float64
	for i, r := range results {
		if r.R < 0 {
			t.Errorf("job %d got r=%d", i, r.R)
		}
		spent += r.MachineTime
	}
	if spent > budget+1e-6 {
		t.Errorf("allocation spends %v over budget %v", spent, budget)
	}
	// Some budget must actually be used for speculation.
	allocated := 0
	for _, r := range results {
		allocated += r.R
	}
	if allocated == 0 {
		t.Error("no speculation allocated despite 50% headroom")
	}
}

func TestBatchSolveErrors(t *testing.T) {
	if _, err := BatchSolve(nil, 100); err == nil {
		t.Error("empty batch accepted")
	}
	jobs := []BatchJob{batchJob(10, 100, analysis.StrategyClone)}
	if _, err := BatchSolve(jobs, 1); !errors.Is(err, ErrBudgetTooSmall) {
		t.Errorf("tiny budget err = %v, want ErrBudgetTooSmall", err)
	}
	bad := []BatchJob{{Model: analysis.NewModel(analysis.StrategyClone, analysis.Params{})}}
	if _, err := BatchSolve(bad, 100); err == nil {
		t.Error("invalid job params accepted")
	}
}

func TestBatchSolvePrioritizesTightJobs(t *testing.T) {
	// A deadline-critical job and a slack one: with limited budget the
	// critical job must receive at least as many extra attempts.
	tight := batchJob(10, 40, analysis.StrategyClone)
	slack := batchJob(10, 4000, analysis.StrategyClone)
	base := tight.Model.MachineTime(0) + slack.Model.MachineTime(0)
	results, err := BatchSolve([]BatchJob{tight, slack}, base*1.2)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].R < results[1].R {
		t.Errorf("tight job got r=%d, slack job r=%d", results[0].R, results[1].R)
	}
}

// TestBatchSolveNearBruteForce compares the greedy allocation against
// exhaustive search on a small two-job instance over a grid of budgets.
func TestBatchSolveNearBruteForce(t *testing.T) {
	jobs := []BatchJob{
		batchJob(10, 100, analysis.StrategyClone),
		batchJob(15, 90, analysis.StrategyClone),
	}
	base := jobs[0].Model.MachineTime(0) + jobs[1].Model.MachineTime(0)
	for _, factor := range []float64{1.1, 1.5, 2, 3} {
		budget := base * factor
		got, err := BatchSolve(jobs, budget)
		if err != nil {
			t.Fatal(err)
		}
		gotU := got[0].Utility + got[1].Utility

		// Brute force over r pairs.
		bestU := math.Inf(-1)
		for r0 := 0; r0 <= 12; r0++ {
			for r1 := 0; r1 <= 12; r1++ {
				cost := jobs[0].Model.MachineTime(r0) + jobs[1].Model.MachineTime(r1)
				if cost > budget {
					continue
				}
				u := math.Log10(jobs[0].Model.PoCD(r0)) + math.Log10(jobs[1].Model.PoCD(r1))
				if u > bestU {
					bestU = u
				}
			}
		}
		// Greedy on (possibly non-concave below Gamma) instances: within a
		// small optimality gap.
		if gotU < bestU-0.02 {
			t.Errorf("budget %.0f: greedy utility %v, brute force %v", budget, gotU, bestU)
		}
	}
}

func TestBatchSolveInfeasibleRMin(t *testing.T) {
	j := batchJob(10, 100, analysis.StrategyClone)
	j.RMin = 0.999999999 // essentially unreachable
	results, err := BatchSolve([]BatchJob{j}, j.Model.MachineTime(0)*10)
	if err != nil {
		t.Fatal(err)
	}
	// The job stays infeasible; its utility is -Inf but the solver
	// terminates.
	if !math.IsInf(results[0].Utility, -1) && results[0].PoCD <= j.RMin {
		t.Errorf("utility %v with PoCD %v <= RMin", results[0].Utility, results[0].PoCD)
	}
}

// batchBruteCap bounds the brute force TestBatchSolveMatchesBruteForce runs.
const batchBruteCap = 10

// TestBatchSolveMatchesBruteForce holds BatchSolve against exhaustive search
// over r <= batchBruteCap on random 2-3-job batches of all three strategies.
// The walk is the knapsack's LP-relaxation greedy, so it may trail by the
// integrality gap, which is logged (and held to 1% of batches past 0.02
// log10 units); what it must never do is answer -Inf where a finite
// allocation exists, spend over the budget, or leave an affordable
// r -> r+1 step untaken that gains more than the 1e-9 saturation threshold.
// Each batch is solved at two budgets: 1-3x its r = 0 cost, the draw whose
// gap is held, and one drawn from below the r = 0 cost down to the sum of
// each job's cheapest point, where the walk must refuse only a budget that
// brute force cannot fill with a finite allocation either.
func TestBatchSolveMatchesBruteForce(t *testing.T) {
	batches := 3000
	if testing.Short() || race.Enabled {
		batches = 300
	}
	rng := rand.New(rand.NewSource(49))
	lowRng := rand.New(rand.NewSource(52)) // its own stream, so the 1-3x draw keeps its batches
	var gaps, lowGaps []float64
	over, refused := 0, 0 // batches trailing brute force by more than 0.02 log10 units; low budgets refused
	for b := 0; b < batches; b++ {
		jobs := make([]BatchJob, 2+rng.Intn(2))
		// pts[i][r] is job i's point at r, each evaluated once.
		pts := make([][batchBruteCap + 1]Point, len(jobs))
		base, cheapest := 0.0, 0.0
		for i := range jobs {
			tmin := 1 + rng.Float64()*49
			tauEst := rng.Float64() * 0.6 * tmin
			p := analysis.Params{
				N:        1 + rng.Intn(100),
				Deadline: tmin * (1.5 + 5*rng.Float64()),
				Task:     pareto.MustNew(tmin, 1.2+rng.Float64()),
				TauEst:   tauEst,
				TauKill:  tauEst + rng.Float64()*0.6*tmin,
			}
			jobs[i] = BatchJob{
				Model: analysis.NewModel(analysis.Strategies()[rng.Intn(3)], p),
				RMin:  []float64{0, 0.5, 0.9}[rng.Intn(3)],
			}
			for r := range pts[i] {
				pts[i][r] = batchPoint(jobs[i], r)
			}
			base += pts[i][0].MachineTime
			cheapest += slices.MinFunc(pts[i][:], func(a, b Point) int { return cmp.Compare(a.MachineTime, b.MachineTime) }).MachineTime
		}
		budget := base * (1 + 2*rng.Float64())
		if gap, ok := batchVsBruteForce(t, b, jobs, pts, budget); ok {
			gaps = append(gaps, gap)
			if gap > 0.02 {
				over++
			}
		}
		low := cheapest + (base-cheapest)*lowRng.Float64()
		if _, err := BatchSolve(jobs, low); errors.Is(err, ErrBudgetTooSmall) {
			refused++
			if bestU := bruteForce(pts, low); !math.IsInf(bestU, -1) {
				t.Errorf("batch %d: budget %v refused (%v), brute force finds %v", b, low, err, bestU)
			}
		} else if gap, ok := batchVsBruteForce(t, b, jobs, pts, low); ok {
			lowGaps = append(lowGaps, gap)
		}
	}
	if over > batches/100 {
		t.Errorf("%d of %d batches trail brute force by more than 0.02, want at most 1%%", over, batches)
	}
	slices.Sort(gaps)
	t.Logf("%d batches, %d finite: gap p50 %.3g, p99 %.3g, max %.3g; %d over 0.02",
		batches, len(gaps), gaps[len(gaps)/2], gaps[len(gaps)*99/100], gaps[len(gaps)-1], over)
	slices.Sort(lowGaps)
	t.Logf("below the r = 0 cost: %d refused, %d finite: gap p50 %.3g, p99 %.3g, max %.3g",
		refused, len(lowGaps), lowGaps[len(lowGaps)/2], lowGaps[len(lowGaps)*99/100], lowGaps[len(lowGaps)-1])
}

// batchVsBruteForce solves batch b at budget and checks the answer against
// brute force over pts, the jobs' points by r. It returns how far the walk
// trails brute force, and false when brute force finds no finite allocation.
func batchVsBruteForce(t *testing.T, b int, jobs []BatchJob, pts [][batchBruteCap + 1]Point, budget float64) (float64, bool) {
	t.Helper()
	got, err := BatchSolve(jobs, budget)
	if err != nil {
		t.Fatalf("batch %d: budget %v: %v", b, budget, err)
	}
	gotU, spent := 0.0, 0.0
	for _, p := range got {
		gotU += p.Utility
		spent += p.MachineTime
	}
	if spent > budget {
		t.Errorf("batch %d: spends %v over budget %v", b, spent, budget)
	}
	for i, p := range got {
		next := batchPoint(jobs[i], p.R+1)
		if p.R < batchRCap && next.MachineTime-p.MachineTime <= budget-spent && next.Utility-p.Utility > 1e-9 {
			t.Errorf("batch %d job %d: affordable step r=%d -> %d gains %v, untaken",
				b, i, p.R, p.R+1, next.Utility-p.Utility)
		}
	}

	bestU := bruteForce(pts, budget)
	if math.IsInf(bestU, -1) {
		return 0, false
	}
	if math.IsInf(gotU, -1) {
		t.Errorf("batch %d: budget %v: -Inf where brute force finds %v", b, budget, bestU)
	}
	return max(bestU-gotU, 0), true
}

// bruteForce returns the highest total utility of any choice of one point
// per job whose machine time fits budget, -Inf when none fits or none is
// finite.
func bruteForce(pts [][batchBruteCap + 1]Point, budget float64) float64 {
	bestU := math.Inf(-1)
	var search func(i int, u, cost float64)
	search = func(i int, u, cost float64) {
		if cost > budget {
			return
		}
		if i == len(pts) {
			bestU = max(bestU, u)
			return
		}
		for r := range pts[i] {
			search(i+1, u+pts[i][r].Utility, cost+pts[i][r].MachineTime)
		}
	}
	search(0, 0, 0)
	return bestU
}

// batchPoint is job j's point at r under BatchSolve's utility.
func batchPoint(j BatchJob, r int) Point {
	p := Point{R: r, PoCD: j.Model.PoCD(r), MachineTime: j.Model.MachineTime(r), Utility: math.Inf(-1)}
	if p.PoCD > j.RMin {
		p.Utility = math.Log10(p.PoCD - j.RMin)
	}
	return p
}

// TestBatchSolveLiftsJobAboveRMin: a Clone job whose PoCD at r = 0 and at
// r = 1 are both below its RMin used to stay at r = 0 at PoCD 1.6e-6 (its
// gain was -Inf - -Inf = NaN), though the budget buys r = 3 many times over.
// An unbounded budget lifts it too.
func TestBatchSolveLiftsJobAboveRMin(t *testing.T) {
	j := BatchJob{
		Model: analysis.NewModel(analysis.StrategyClone, analysis.Params{
			N: 100, Deadline: 40, Task: pareto.MustNew(10, 1.5), TauEst: 3, TauKill: 6,
		}),
		RMin: 0.9,
	}
	for _, budget := range []float64{1e7, math.Inf(1)} {
		got, err := BatchSolve([]BatchJob{j}, budget)
		if err != nil {
			t.Fatal(err)
		}
		if got[0].R < 3 || !(got[0].PoCD > j.RMin) {
			t.Errorf("budget %v: got r=%d at PoCD %v, want r >= 3 above RMin %v", budget, got[0].R, got[0].PoCD, j.RMin)
		}
	}
}

// TestBatchSolveCreditsCheaperStart: a Restart job costs 1,500 machine-s at
// r = 0 but 894.1 at r = 1 and 893.8 at r = 4 (PoCD 0.975). A budget of 894.1
// covers the point the walk starts from, so the batch is solved, not refused
// as short of the r = 0 cost.
func TestBatchSolveCreditsCheaperStart(t *testing.T) {
	j := BatchJob{Model: analysis.NewModel(analysis.StrategyRestart, analysis.Params{
		N: 50, Deadline: 30, Task: pareto.MustNew(10, 1.5), TauEst: 3, TauKill: 6,
	})}
	got, err := BatchSolve([]BatchJob{j}, 894.1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].R < 4 || got[0].MachineTime > 894.1 {
		t.Errorf("got r=%d for %v machine-s at PoCD %v, want r >= 4 within 894.1", got[0].R, got[0].MachineTime, got[0].PoCD)
	}
}
