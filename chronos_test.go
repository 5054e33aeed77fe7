package chronos

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"chronos/internal/optimize"
	"chronos/internal/race"
)

func apiParams() JobParams {
	return JobParams{
		Tasks:    10,
		Deadline: 100,
		TMin:     10,
		Beta:     1.5,
		TauEst:   30,
		TauKill:  60,
	}
}

func apiEcon() Econ {
	return Econ{Theta: 1e-4, UnitPrice: 1}
}

func TestStrategyString(t *testing.T) {
	names := map[Strategy]string{
		Clone:              "Clone",
		SpeculativeRestart: "Speculative-Restart",
		SpeculativeResume:  "Speculative-Resume",
		HadoopNS:           "Hadoop-NS",
		HadoopS:            "Hadoop-S",
		Mantri:             "Mantri",
		Strategy(0):        "Unknown",
	}
	for s, want := range names {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}

func TestPoCDClosedForm(t *testing.T) {
	// Theorem 1 by hand: [1 - (tmin/D)^(beta*(r+1))]^N.
	got, err := PoCD(Clone, apiParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(1-math.Pow(0.1, 3.0), 10)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("PoCD = %v, want %v", got, want)
	}
}

func TestPoCDErrors(t *testing.T) {
	if _, err := PoCD(Mantri, apiParams(), 1); !errors.Is(err, ErrNotAnalytic) {
		t.Errorf("PoCD(Mantri) err = %v, want ErrNotAnalytic", err)
	}
	bad := apiParams()
	bad.Beta = 0.5
	if _, err := PoCD(Clone, bad, 1); err == nil {
		t.Error("PoCD accepted beta <= 1")
	}
	if _, err := PoCD(Clone, apiParams(), -1); err == nil {
		t.Error("PoCD accepted negative r")
	}
}

func TestExpectedMachineTime(t *testing.T) {
	got, err := ExpectedMachineTime(Clone, apiParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// r=0: N * mean = 10 * 30.
	if math.Abs(got-300) > 1e-9 {
		t.Errorf("ExpectedMachineTime = %v, want 300", got)
	}
	if _, err := ExpectedMachineTime(HadoopS, apiParams(), 0); !errors.Is(err, ErrNotAnalytic) {
		t.Errorf("err = %v, want ErrNotAnalytic", err)
	}
	if _, err := ExpectedMachineTime(Clone, apiParams(), -2); err == nil {
		t.Error("accepted negative r")
	}
}

func TestOptimizeMatchesCurve(t *testing.T) {
	for _, s := range ChronosStrategies() {
		plan, err := Optimize(s, apiParams(), apiEcon())
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		curve, err := TradeoffCurve(s, apiParams(), apiEcon(), plan.R+20)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range curve {
			if pt.Utility > plan.Utility+1e-12 {
				t.Errorf("%v: curve point r=%d beats the plan", s, pt.R)
			}
		}
		if plan.Strategy != s {
			t.Errorf("plan strategy = %v, want %v", plan.Strategy, s)
		}
	}
}

func TestOptimizeBest(t *testing.T) {
	best, err := OptimizeBest(apiParams(), apiEcon())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ChronosStrategies() {
		plan, err := Optimize(s, apiParams(), apiEcon())
		if err != nil {
			t.Fatal(err)
		}
		if plan.Utility > best.Utility+1e-12 {
			t.Errorf("OptimizeBest missed %v with utility %v > %v", s, plan.Utility, best.Utility)
		}
	}
}

// bestOfOptimize is OptimizeBest's rule applied to three separate Optimize
// calls: the highest utility, the earlier strategy on a tie, an infeasible
// strategy skipped, any other error returned at once.
func bestOfOptimize(p JobParams, e Econ) (Plan, error) {
	var best Plan
	found := false
	for _, s := range ChronosStrategies() {
		plan, err := Optimize(s, p, e)
		switch {
		case errors.Is(err, optimize.ErrInfeasible):
		case err != nil:
			return Plan{}, err
		case !found || plan.Utility > best.Utility:
			best, found = plan, true
		}
	}
	if !found {
		return Plan{}, optimize.ErrInfeasible
	}
	return best, nil
}

// TestOptimizeBestMatchesOptimize: OptimizeBest solves the three strategies
// in one pass over the job, and must answer exactly what three separate
// Optimize calls do: the same plan bit for bit, or the same error. 5,000
// trace shapes drawn as the plan_cold benchmark draws them, and 5,000 random
// shapes and economics over a wider range, infeasible and invalid ones
// included; 500 of each under -short or -race.
func TestOptimizeBestMatchesOptimize(t *testing.T) {
	n := 5000
	if testing.Short() || race.Enabled {
		n = 500
	}
	jobs, err := SyntheticTrace(TraceConfig{Jobs: n, Seed: 2_000_008})
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		p JobParams
		e Econ
	}
	cells := make([]cell, 0, 2*len(jobs))
	for _, j := range jobs {
		cells = append(cells, cell{JobParams{Tasks: j.Tasks, Deadline: j.Deadline, TMin: j.TMin, Beta: j.Beta,
			TauEst: 0.3 * j.TMin, TauKill: 0.6 * j.TMin}, Econ{Theta: 1e-4, UnitPrice: 1}})
	}
	rng := rand.New(rand.NewPCG(44, 3))
	logU := func(lo, hi float64) float64 { return math.Exp(math.Log(lo) + rng.Float64()*math.Log(hi/lo)) }
	for range len(jobs) {
		tmin := logU(0.01, 1000)
		d := tmin * (1 + logU(0.05, 30))
		te := d * rng.Float64() * 0.9
		p := JobParams{Tasks: 1 + rng.IntN(5000), Deadline: d, TMin: tmin, Beta: 1 + logU(1e-3, 3),
			TauEst: te, TauKill: te + (d-te)*rng.Float64()}
		if rng.IntN(2) == 0 {
			p.PhiEst = 0.99 * rng.Float64()
		}
		e := Econ{Theta: logU(1e-7, 1), UnitPrice: logU(0.1, 10)}
		if rng.IntN(4) == 0 {
			e.RMin = rng.Float64()
		}
		switch rng.IntN(100) { // one cell in 25 fails validation
		case 0:
			p.Tasks = 0
		case 1:
			p.Beta = 1
		case 2:
			p.TauKill = 1.5 * d
		case 3:
			e.Theta = 0
		}
		cells = append(cells, cell{p, e})
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, c := range cells {
		got, gotErr := OptimizeBest(c.p, c.e)
		want, wantErr := bestOfOptimize(c.p, c.e)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%+v %+v: OptimizeBest error %v, Optimize's %v", c.p, c.e, gotErr, wantErr)
		}
		if got.Strategy != want.Strategy || got.R != want.R || !same(got.PoCD, want.PoCD) ||
			!same(got.MachineTime, want.MachineTime) || !same(got.Cost, want.Cost) || !same(got.Utility, want.Utility) {
			t.Fatalf("%+v %+v: OptimizeBest = %+v, best of Optimize = %+v", c.p, c.e, got, want)
		}
	}
}

func TestOptimizeWithinBudget(t *testing.T) {
	un, err := OptimizeBest(apiParams(), apiEcon())
	if err != nil {
		t.Fatal(err)
	}
	// Loose budget: identical to the unconstrained solve.
	got, err := OptimizeBestWithinBudget(apiParams(), apiEcon(), un.MachineTime*2)
	if err != nil {
		t.Fatal(err)
	}
	if got != un {
		t.Errorf("loose budget changed the plan: got %+v, want %+v", got, un)
	}
	// Tight budget: the plan must fit.
	r0, err := ExpectedMachineTime(un.Strategy, apiParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	budget := (r0 + un.MachineTime) / 2
	got, err = OptimizeBestWithinBudget(apiParams(), apiEcon(), budget)
	if err != nil {
		t.Fatal(err)
	}
	if got.MachineTime > budget {
		t.Errorf("plan costs %v, budget %v", got.MachineTime, budget)
	}
	// Unpayable budget.
	if _, err := OptimizeBestWithinBudget(apiParams(), apiEcon(), 1e-9); !errors.Is(err, optimize.ErrBudgetTooSmall) {
		t.Errorf("tiny budget: err = %v, want ErrBudgetTooSmall", err)
	}
	if _, err := OptimizeWithinBudget(Mantri, apiParams(), apiEcon(), 1e9); !errors.Is(err, ErrNotAnalytic) {
		t.Errorf("baseline accepted: %v", err)
	}
}

func TestOptimizeBaselineRejected(t *testing.T) {
	if _, err := Optimize(Mantri, apiParams(), apiEcon()); !errors.Is(err, ErrNotAnalytic) {
		t.Errorf("Optimize(Mantri) err = %v", err)
	}
}

func TestMinCostForPoCD(t *testing.T) {
	plan, err := MinCostForPoCD(SpeculativeResume, apiParams(), apiEcon(), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if plan.PoCD < 0.99 {
		t.Errorf("plan PoCD %v below target", plan.PoCD)
	}
	if _, err := MinCostForPoCD(Mantri, apiParams(), apiEcon(), 0.9); !errors.Is(err, ErrNotAnalytic) {
		t.Errorf("baseline accepted: %v", err)
	}
}

func TestSimulateQuickstart(t *testing.T) {
	jobs := Benchmarks()[0].Jobs(100, 10, 400)
	rep, err := Simulate(SimConfig{
		Strategy: SpeculativeResume,
		Seed:     7,
		TauEst:   40,
		TauKill:  80,
		TauScale: TauAbsolute,
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != 100 {
		t.Errorf("Jobs = %d, want 100", rep.Jobs)
	}
	if rep.PoCD <= 0 || rep.PoCD > 1 {
		t.Errorf("PoCD = %v", rep.PoCD)
	}
	if rep.MeanCost <= 0 || rep.MeanMachineTime <= 0 {
		t.Errorf("cost/machine time not positive: %+v", rep)
	}
	if len(rep.RHistogram) == 0 {
		t.Error("missing r histogram for a Chronos strategy")
	}
	// Baseline comparison on common random numbers: speculation helps.
	ns, err := Simulate(SimConfig{Strategy: HadoopNS, Seed: 7}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PoCD < ns.PoCD {
		t.Errorf("S-Resume PoCD %v below Hadoop-NS %v", rep.PoCD, ns.PoCD)
	}
	if len(ns.RHistogram) != 0 {
		t.Error("baseline reported an r histogram")
	}
}

func TestSimulateAllStrategiesRun(t *testing.T) {
	jobs := []SimJob{{Tasks: 5, Deadline: 100, TMin: 10, Beta: 1.5}}
	for _, s := range []Strategy{Clone, SpeculativeRestart, SpeculativeResume, HadoopNS, HadoopS, Mantri} {
		rep, err := Simulate(SimConfig{Strategy: s, Seed: 3}, jobs)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if rep.Jobs != 1 {
			t.Errorf("%v: Jobs = %d", s, rep.Jobs)
		}
	}
}

func TestSimulateErrors(t *testing.T) {
	if _, err := Simulate(SimConfig{Strategy: Clone}, nil); err == nil {
		t.Error("empty job list accepted")
	}
	if _, err := Simulate(SimConfig{Strategy: Strategy(42)},
		[]SimJob{{Tasks: 1, Deadline: 10, TMin: 1, Beta: 1.5}}); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := Simulate(SimConfig{Strategy: Clone},
		[]SimJob{{Tasks: 1, Deadline: 10, TMin: 0, Beta: 1.5}}); err == nil {
		t.Error("invalid job accepted")
	}
}

func TestSimulateFixedRZero(t *testing.T) {
	jobs := []SimJob{{Tasks: 4, Deadline: 100, TMin: 10, Beta: 1.5}}
	rep, err := Simulate(SimConfig{
		Strategy:  Clone,
		Seed:      5,
		UseFixedR: true,
		FixedR:    0,
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RHistogram[0] != 1 {
		t.Errorf("FixedR=0 not honoured: hist %v", rep.RHistogram)
	}
}

func TestBenchmarks(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 4 {
		t.Fatalf("got %d benchmarks, want 4", len(bs))
	}
	names := map[string]bool{}
	for _, b := range bs {
		names[b.Name] = true
		if b.TMin <= 0 || b.Beta <= 1 || b.Deadline <= 0 {
			t.Errorf("benchmark %s has bad params: %+v", b.Name, b)
		}
	}
	for _, want := range []string{"Sort", "SecondarySort", "TeraSort", "WordCount"} {
		if !names[want] {
			t.Errorf("missing benchmark %s", want)
		}
	}
}

func TestSyntheticTrace(t *testing.T) {
	jobs, err := SyntheticTrace(TraceConfig{Jobs: 50, HorizonSeconds: 3600, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 50 {
		t.Fatalf("got %d jobs, want 50", len(jobs))
	}
	for _, j := range jobs {
		if j.Tasks < 1 || j.Deadline <= 0 || j.TMin <= 0 || j.Beta <= 1 {
			t.Errorf("bad trace job %+v", j)
		}
		if j.Arrival < 0 || j.Arrival > 3600 {
			t.Errorf("arrival %v outside horizon", j.Arrival)
		}
	}
	// Trace jobs run end to end.
	rep, err := Simulate(SimConfig{Strategy: SpeculativeResume, Seed: 4}, jobs[:10])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != 10 {
		t.Errorf("simulated %d trace jobs, want 10", rep.Jobs)
	}
}

func TestPlanBatch(t *testing.T) {
	jobs := []BatchJob{
		{Strategy: Clone, Params: apiParams()},
		{Strategy: SpeculativeResume, Params: apiParams()},
	}
	var base float64
	for _, j := range jobs {
		mt, err := ExpectedMachineTime(j.Strategy, j.Params, 0)
		if err != nil {
			t.Fatal(err)
		}
		base += mt
	}
	plans, err := PlanBatch(jobs, base*2)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 2 {
		t.Fatalf("got %d plans, want 2", len(plans))
	}
	var spent float64
	granted := 0
	for _, p := range plans {
		spent += p.MachineTime
		granted += p.R
	}
	if spent > base*2+1e-6 {
		t.Errorf("batch spends %v over budget %v", spent, base*2)
	}
	if granted == 0 {
		t.Error("no speculation granted with 2x headroom")
	}
	// Baselines are rejected.
	if _, err := PlanBatch([]BatchJob{{Strategy: Mantri, Params: apiParams()}}, 1e9); !errors.Is(err, ErrNotAnalytic) {
		t.Errorf("PlanBatch(Mantri) err = %v", err)
	}
	// Bad params are rejected.
	bad := apiParams()
	bad.Tasks = 0
	if _, err := PlanBatch([]BatchJob{{Strategy: Clone, Params: bad}}, 1e9); err == nil {
		t.Error("PlanBatch accepted invalid params")
	}
}

func TestSimulateHadoopEstimatorAblation(t *testing.T) {
	jobs := Benchmarks()[0].Jobs(60, 10, 400)
	base := SimConfig{
		Strategy: SpeculativeResume, Seed: 21,
		TauEst: 40, TauKill: 80, TauScale: TauAbsolute,
	}
	exact, err := Simulate(base, jobs)
	if err != nil {
		t.Fatal(err)
	}
	hcfg := base
	hcfg.UseHadoopEstimator = true
	hadoop, err := Simulate(hcfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	// The JVM-oblivious estimator overestimates completion, flagging more
	// false stragglers: it must cost at least as much as Eq. 30.
	if hadoop.MeanCost < exact.MeanCost*0.98 {
		t.Errorf("hadoop-estimator cost %v below chronos-estimator %v",
			hadoop.MeanCost, exact.MeanCost)
	}
}

// TestDeadlineQuantile: the quoted deadline is one the plan meets — PoCD with
// the job's deadline set to it reaches the target.
func TestDeadlineQuantile(t *testing.T) {
	p := apiParams()
	d, err := DeadlineQuantile(SpeculativeResume, p, 2, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	p.Deadline = d
	check, err := PoCD(SpeculativeResume, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if check < 0.999-1e-6 {
		t.Errorf("quoted deadline %v reaches only %v", d, check)
	}
	// Baselines have no closed form.
	if _, err := DeadlineQuantile(Mantri, p, 1, 0.9); !errors.Is(err, ErrNotAnalytic) {
		t.Errorf("DeadlineQuantile(Mantri) err = %v", err)
	}
}

// TestPlanBatchRejectsBadBudget: the library checks the budget itself instead
// of trusting the server to. A NaN budget compares false with every cost, so
// it used to be granted like +Inf; OptimizeWithinBudget always rejected it.
func TestPlanBatchRejectsBadBudget(t *testing.T) {
	jobs := []BatchJob{
		{Strategy: Clone, Params: apiParams()},
		{Strategy: SpeculativeResume, Params: apiParams()},
	}
	for _, c := range []struct {
		name   string
		budget float64
		want   error
	}{
		{"NaN", math.NaN(), optimize.ErrNaNBudget},
		{"zero", 0, optimize.ErrBudgetTooSmall},
		{"negative", -1, optimize.ErrBudgetTooSmall},
		{"-Inf", math.Inf(-1), optimize.ErrBudgetTooSmall},
		{"+Inf", math.Inf(1), nil},
	} {
		plans, err := PlanBatch(jobs, c.budget)
		if !errors.Is(err, c.want) || (c.want == nil && len(plans) != len(jobs)) {
			t.Errorf("%s: PlanBatch = %+v, %v; want error %v", c.name, plans, err, c.want)
		}
	}
	_, ref := OptimizeWithinBudget(Clone, apiParams(), apiEcon(), math.NaN())
	if _, err := PlanBatch(jobs, math.NaN()); ref == nil || err == nil || err.Error() != ref.Error() {
		t.Errorf("PlanBatch(NaN) = %v, OptimizeWithinBudget(NaN) = %v; want the same rejection", err, ref)
	}
}

// TestTradeoffCurveMaxR: a negative maxR is an error, not a makeslice panic.
func TestTradeoffCurveMaxR(t *testing.T) {
	for _, c := range []struct {
		maxR, points int
		ok           bool
	}{
		{-5, 0, false}, {-1, 0, false}, {0, 1, true}, {8, 9, true},
	} {
		pts, err := TradeoffCurve(Clone, apiParams(), apiEcon(), c.maxR)
		if (err == nil) != c.ok || len(pts) != c.points {
			t.Errorf("TradeoffCurve(maxR %d) = %d points, %v; want %d points, ok=%v", c.maxR, len(pts), err, c.points, c.ok)
		}
	}
}

// TestAnalyticEntryPointsAlloc pins the analytic entry points at zero
// allocations: each binds a stack (or pooled) analysis.Evaluator rather than
// boxing a model — per probe, and per bisection step in DeadlineQuantile.
func TestAnalyticEntryPointsAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p, e := apiParams(), apiEcon()
	un, err := Optimize(Clone, p, e)
	if err != nil || un.R == 0 {
		t.Fatalf("Optimize(Clone) = %+v, %v: nothing to squeeze", un, err)
	}
	for name, f := range map[string]func(){
		"PoCD":                func() { _, err = PoCD(SpeculativeRestart, p, 3) },
		"ExpectedMachineTime": func() { _, err = ExpectedMachineTime(SpeculativeRestart, p, 3) },
		"DeadlineQuantile":    func() { _, err = DeadlineQuantile(SpeculativeResume, p, 2, 0.99) },
		"MinCostForPoCD":      func() { _, err = MinCostForPoCD(Clone, p, e, 0.99) },
		"Optimize":            func() { _, err = Optimize(SpeculativeRestart, p, e) },
		"OptimizeBest":        func() { _, err = OptimizeBest(p, e) },
		// A squeezed solve: the scan window lives in the pooled memo.
		"OptimizeWithinBudget": func() { _, err = OptimizeWithinBudget(Clone, p, e, 0.8*un.MachineTime) },
	} {
		f() // warm the solver's pool
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if avg := testing.AllocsPerRun(100, f); avg != 0 {
			t.Errorf("%s allocates %.1f times per op, want 0", name, avg)
		}
	}
}
