// Package experiment holds the shape tests of the paper's evaluation sweeps
// (Section VII) on a small cluster. It has no non-test code: the evaluation
// itself is cmd/chronos-figures, and TestPaperClaims there judges the tables
// that command prints (2,048×8 nodes, the full trace, and Tables I and II
// under 2 s progress reports with 10 % noise).
//
// These tests run the same sweeps through chronos.Simulate on 512×8 nodes,
// with exact progress observation and a synthetic trace of 80 jobs capped at
// 100 tasks each, and hold each strategy to the shape of the paper's figure
// on that configuration. The two configurations disagree on one claim: here
// Table I's best Speculative-Restart/Resume PoCD stays within 0.05 of
// Clone's, while under the printed run's noisy reports it does not (ROADMAP
// item 11, a known divergence in the claims ledger).
package experiment

import (
	"math"
	"testing"

	"chronos"
	"chronos/internal/metrics"
	"chronos/internal/optimize"
	"chronos/internal/pareto"
	"chronos/internal/trace"
	"chronos/internal/workload"
)

// cluster is the shared shape and seed: ample capacity, so results reflect
// scheduling policy rather than queueing, and common random numbers across
// strategies.
var cluster = chronos.SimConfig{Nodes: 512, SlotsPerNode: 8, Seed: 1}

var (
	testbed  = []chronos.Strategy{chronos.HadoopNS, chronos.HadoopS, chronos.Clone, chronos.SpeculativeRestart, chronos.SpeculativeResume}
	reactive = []chronos.Strategy{chronos.SpeculativeRestart, chronos.SpeculativeResume}
)

func econ(theta float64) chronos.Econ { return chronos.Econ{Theta: theta, UnitPrice: 1} }

// smallTrace is the default synthetic trace shrunk to 80 jobs of at most 100
// tasks each.
func smallTrace(t *testing.T) []chronos.SimJob {
	t.Helper()
	gen := trace.DefaultGeneratorConfig()
	gen.Jobs, gen.MaxTasks = 80, 100
	records, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]chronos.SimJob, len(records))
	for i, r := range records {
		jobs[i] = chronos.SimJob{Tasks: r.NumTasks, Deadline: r.Deadline, TMin: r.Dist.TMin, Beta: r.Dist.Beta, Arrival: r.Arrival}
	}
	return jobs
}

// traceReports memoises the trace-driven cells, which Figures 3 and 5 share.
var traceReports = map[chronos.SimConfig]chronos.Report{}

// simulateTrace runs cfg over smallTrace.
func simulateTrace(t *testing.T, cfg chronos.SimConfig) chronos.Report {
	t.Helper()
	if rep, ok := traceReports[cfg]; ok {
		return rep
	}
	rep, err := chronos.Simulate(cfg, smallTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	traceReports[cfg] = rep
	return rep
}

func checkRange(t *testing.T, what string, rep chronos.Report) {
	t.Helper()
	if rep.PoCD < 0 || rep.PoCD > 1 || rep.MeanCost <= 0 {
		t.Errorf("%s: PoCD %v, cost %v out of range", what, rep.PoCD, rep.MeanCost)
	}
}

// TestRunFigure2Shape: 60 jobs of 10 tasks per testbed benchmark, tauEst =
// 40 s and tauKill = 80 s, theta = 1e-4, and each benchmark's Hadoop-NS
// PoCD as its Rmin.
func TestRunFigure2Shape(t *testing.T) {
	profiles := workload.Profiles()
	benches := chronos.Benchmarks()
	if len(benches) != 4 {
		t.Fatalf("got %d benchmarks, want 4", len(benches))
	}
	for i, b := range benches {
		cfg := cluster
		cfg.Econ, cfg.TauEst, cfg.TauKill, cfg.TauScale = econ(1e-4), 40, 80, chronos.TauAbsolute
		cfg.JVMMin, cfg.JVMMax = profiles[i].JVM.Min, profiles[i].JVM.Max
		jobs := b.Jobs(60, 10, 400)
		reps := map[chronos.Strategy]chronos.Report{}
		utility := map[chronos.Strategy]float64{}
		var rmin float64
		for _, s := range testbed {
			cfg.Strategy = s
			rep, err := chronos.Simulate(cfg, jobs)
			if err != nil {
				t.Fatal(err)
			}
			checkRange(t, b.Name+"/"+s.String(), rep)
			if s == chronos.HadoopNS {
				rmin = min(rep.PoCD, 1-1e-6) // below 1, so feasible strategies exist
			}
			reps[s] = rep
			utility[s] = optimize.Config{Theta: 1e-4, UnitPrice: 1, RMin: rmin}.UtilityFromMeasured(rep.PoCD, rep.MeanCost)
		}

		ns := reps[chronos.HadoopNS]
		// Figure 2(a): Hadoop-NS has the lowest PoCD.
		for s, rep := range reps {
			if rep.PoCD < ns.PoCD-0.05 {
				t.Errorf("%s: %s PoCD %v below Hadoop-NS %v", b.Name, s, rep.PoCD, ns.PoCD)
			}
		}
		// Figure 2(c): Hadoop-NS sits at Rmin, so its utility is -Inf.
		if !math.IsInf(utility[chronos.HadoopNS], -1) {
			t.Errorf("%s: Hadoop-NS utility = %v, want -Inf", b.Name, utility[chronos.HadoopNS])
		}
		// The Chronos strategies beat Hadoop-NS on PoCD decisively.
		for _, s := range chronos.ChronosStrategies() {
			if reps[s].PoCD <= ns.PoCD {
				t.Errorf("%s: %s PoCD %v not above Hadoop-NS %v", b.Name, s, reps[s].PoCD, ns.PoCD)
			}
		}
		// Clone is the costliest Chronos strategy: it launches its clones
		// for every task up front.
		if clone, resume := reps[chronos.Clone], reps[chronos.SpeculativeResume]; resume.MeanCost > clone.MeanCost*1.05 {
			t.Errorf("%s: S-Resume cost %v above Clone %v", b.Name, resume.MeanCost, clone.MeanCost)
		}
	}
}

// A sweepRow is one row of Table I or II: tau in units of each job's tmin.
type sweepRow struct {
	strategy        chronos.Strategy
	tauEst, tauKill float64
	rep             chronos.Report
}

// tauSweep runs the trace at theta = 1e-5 for each (strategy, tauEst,
// tauKill) point.
func tauSweep(t *testing.T, points []sweepRow) []sweepRow {
	t.Helper()
	for i, p := range points {
		cfg := cluster
		cfg.Strategy, cfg.Econ, cfg.TauEst, cfg.TauKill = p.strategy, econ(1e-5), p.tauEst, p.tauKill
		points[i].rep = simulateTrace(t, cfg)
		checkRange(t, p.strategy.String(), points[i].rep)
	}
	return points
}

// TestRunTable1Shape: Clone at tauEst = 0, and the reactive strategies over
// tauEst in {0.1, 0.3, 0.5}·tmin, each with tauKill - tauEst = 0.5·tmin.
func TestRunTable1Shape(t *testing.T) {
	points := []sweepRow{{strategy: chronos.Clone, tauKill: 0.5}}
	for _, s := range reactive {
		for _, est := range []float64{0.1, 0.3, 0.5} {
			points = append(points, sweepRow{strategy: s, tauEst: est, tauKill: est + 0.5})
		}
	}
	rows := tauSweep(t, points)
	if len(rows) != 7 {
		t.Fatalf("got %d rows, want 7", len(rows))
	}
	if rows[0].strategy != chronos.Clone || rows[0].tauEst != 0 {
		t.Errorf("first row must be Clone at tauEst=0, got %v at %v", rows[0].strategy, rows[0].tauEst)
	}
	for _, row := range rows {
		if row.strategy != chronos.Clone && row.tauKill-row.tauEst != 0.5 {
			t.Errorf("tauKill - tauEst = %v, want 0.5", row.tauKill-row.tauEst)
		}
	}
	// The speculative strategies hold their own against Clone on PoCD in
	// this sweep (Table I shows ~0.99 against 0.72): check the direction
	// loosely.
	var cloneP, bestSpecP float64
	for _, row := range rows {
		if row.strategy == chronos.Clone {
			cloneP = row.rep.PoCD
		} else if row.rep.PoCD > bestSpecP {
			bestSpecP = row.rep.PoCD
		}
	}
	if bestSpecP < cloneP-0.05 {
		t.Errorf("best speculative PoCD %v well below Clone %v", bestSpecP, cloneP)
	}
}

// TestRunTable2Shape: tauKill over {0.4, 0.6, 0.8}·tmin, for Clone at tauEst
// = 0 and for the reactive strategies at tauEst = 0.3·tmin.
func TestRunTable2Shape(t *testing.T) {
	kills := []float64{0.4, 0.6, 0.8}
	var points []sweepRow
	for _, kill := range kills {
		points = append(points, sweepRow{strategy: chronos.Clone, tauKill: kill})
	}
	for _, s := range reactive {
		for _, kill := range kills {
			points = append(points, sweepRow{strategy: s, tauEst: 0.3, tauKill: kill})
		}
	}
	rows := tauSweep(t, points)
	if len(rows) != 9 {
		t.Fatalf("got %d rows, want 9", len(rows))
	}
	byStrat := map[chronos.Strategy][]sweepRow{}
	for _, row := range rows {
		byStrat[row.strategy] = append(byStrat[row.strategy], row)
	}
	for s, series := range byStrat {
		for i := 1; i < len(series); i++ {
			if series[i].tauKill < series[i-1].tauKill {
				t.Errorf("%s rows out of sweep order", s)
			}
		}
	}
}

// fig3 runs the trace at tau = 0.3/0.6 tmin for strategy s at theta.
func fig3(t *testing.T, s chronos.Strategy, theta float64) chronos.Report {
	t.Helper()
	cfg := cluster
	cfg.Strategy, cfg.Econ, cfg.TauEst, cfg.TauKill = s, econ(theta), 0.3, 0.6
	return simulateTrace(t, cfg)
}

// TestRunFigure3Shape: the theta sweep over Mantri and the three Chronos
// strategies.
func TestRunFigure3Shape(t *testing.T) {
	thetas := []float64{1e-6, 1e-5, 1e-4, 1e-3}
	series := map[chronos.Strategy][]chronos.Report{}
	for _, theta := range thetas {
		for _, s := range append([]chronos.Strategy{chronos.Mantri}, chronos.ChronosStrategies()...) {
			rep := fig3(t, s, theta)
			checkRange(t, s.String(), rep)
			// Mantri does not optimise r; every Chronos job does.
			if s == chronos.Mantri && len(rep.RHistogram) != 0 {
				t.Errorf("Mantri reports an r histogram %v", rep.RHistogram)
			}
			if s != chronos.Mantri && len(rep.RHistogram) == 0 {
				t.Errorf("%s at theta=%v: missing r histogram", s, theta)
			}
			series[s] = append(series[s], rep)
		}
	}
	// Figure 3(b): for the Chronos strategies cost is non-increasing in
	// theta (higher theta -> smaller optimal r -> cheaper).
	for _, s := range chronos.ChronosStrategies() {
		c := series[s]
		for i := 1; i < len(c); i++ {
			if c[i].MeanCost > c[i-1].MeanCost*1.05 {
				t.Errorf("%s cost increased from %v to %v as theta grew to %v", s, c[i-1].MeanCost, c[i].MeanCost, thetas[i])
			}
		}
	}
	// Figure 3(b): Mantri does not adapt to theta — its cost is flat across
	// the sweep and at least matches the reactive Chronos strategies'.
	mantri := series[chronos.Mantri]
	minC, maxC := mantri[0].MeanCost, mantri[0].MeanCost
	for _, rep := range mantri {
		minC, maxC = math.Min(minC, rep.MeanCost), math.Max(maxC, rep.MeanCost)
	}
	if maxC > minC*1.01 {
		t.Errorf("Mantri cost varies with theta: [%v, %v]", minC, maxC)
	}
	for i, rep := range mantri {
		for _, s := range reactive {
			if rep.MeanCost < series[s][i].MeanCost*0.97 {
				t.Errorf("theta=%v: Mantri cost %v below %s cost %v", thetas[i], rep.MeanCost, s, series[s][i].MeanCost)
			}
		}
	}
	// Figure 3(c): S-Resume attains the best net utility among the four
	// strategies at every theta (small slack for MC noise).
	for i, rep := range series[chronos.SpeculativeResume] {
		for _, s := range []chronos.Strategy{chronos.Mantri, chronos.Clone, chronos.SpeculativeRestart} {
			if rep.Utility < series[s][i].Utility-0.02 {
				t.Errorf("theta=%v: S-Resume utility %v below %s utility %v", thetas[i], rep.Utility, s, series[s][i].Utility)
			}
		}
	}
}

// TestRunFigure4Shape: 80 jobs of 10 Pareto(10, beta) tasks per beta, each
// due at twice the mean task time, over the five testbed strategies.
func TestRunFigure4Shape(t *testing.T) {
	betas := []float64{1.1, 1.5, 1.9}
	cfg := cluster
	cfg.Econ, cfg.TauEst, cfg.TauKill = econ(1e-4), 0.3, 0.6
	series := map[chronos.Strategy][]chronos.Report{}
	for _, beta := range betas {
		deadline := 2 * pareto.MustNew(10, beta).Mean()
		jobs := chronos.Benchmark{TMin: 10, Beta: beta, Deadline: deadline}.Jobs(80, 10, deadline*4)
		for _, s := range testbed {
			cfg.Strategy = s
			rep, err := chronos.Simulate(cfg, jobs)
			if err != nil {
				t.Fatal(err)
			}
			checkRange(t, s.String(), rep)
			series[s] = append(series[s], rep)
		}
	}
	// Figure 4(b): cost decreases with beta for every strategy (mean task
	// time shrinks).
	for s, c := range series {
		for i := 1; i < len(c); i++ {
			if c[i].MeanCost > c[i-1].MeanCost*1.05 {
				t.Errorf("%s cost grew from %v to %v as beta rose to %v", s, c[i-1].MeanCost, c[i].MeanCost, betas[i])
			}
		}
	}
	// Figure 4(a)/(c): the Chronos strategies dominate Hadoop-NS on PoCD at
	// every beta.
	for i, ns := range series[chronos.HadoopNS] {
		for _, s := range chronos.ChronosStrategies() {
			if series[s][i].PoCD < ns.PoCD-0.03 {
				t.Errorf("beta=%v: %s PoCD %v below Hadoop-NS %v", betas[i], s, series[s][i].PoCD, ns.PoCD)
			}
		}
	}
}

// TestRunFigure5Shape: the optimal-r histograms of Clone and S-Resume at
// theta = 1e-5 and 1e-4, which are Figure 3's cells.
func TestRunFigure5Shape(t *testing.T) {
	for _, s := range []chronos.Strategy{chronos.Clone, chronos.SpeculativeResume} {
		modes := map[float64]int{}
		for _, theta := range []float64{1e-5, 1e-4} {
			h := metrics.Histogram(fig3(t, s, theta).RHistogram)
			total := 0
			for _, n := range h {
				total += n
			}
			if total == 0 {
				t.Fatalf("%s@%v: empty histogram", s, theta)
			}
			modes[theta], _ = h.Mode()
		}
		// Figure 5: the dominant r shifts down as theta increases.
		if modes[1e-4] > modes[1e-5] {
			t.Errorf("%s: mode r at theta=1e-4 (%d) above theta=1e-5 (%d)", s, modes[1e-4], modes[1e-5])
		}
	}
}
