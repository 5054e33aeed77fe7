package experiment

import (
	"math"
	"testing"
)

// fastTrace shrinks the default trace so tests stay fast.
const fastTraceJobs = 80

func TestRunFigure2Shape(t *testing.T) {
	r := DefaultRunner()
	cfg := DefaultFig2Config()
	cfg.Jobs = 60 // keep the unit test quick; the bench runs the full 100
	rows, err := RunFigure2(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4*5 {
		t.Fatalf("got %d rows, want 20 (4 benchmarks x 5 strategies)", len(rows))
	}

	// Index rows by benchmark and strategy.
	idx := make(map[string]map[string]Fig2Row)
	for _, row := range rows {
		if idx[row.Benchmark] == nil {
			idx[row.Benchmark] = make(map[string]Fig2Row)
		}
		idx[row.Benchmark][row.Strategy] = row
		if row.PoCD < 0 || row.PoCD > 1 {
			t.Errorf("%s/%s PoCD = %v", row.Benchmark, row.Strategy, row.PoCD)
		}
		if row.Cost <= 0 {
			t.Errorf("%s/%s cost = %v", row.Benchmark, row.Strategy, row.Cost)
		}
	}

	for bench, byStrat := range idx {
		ns := byStrat["Hadoop-NS"]
		// Figure 2(a): Hadoop-NS has the lowest PoCD.
		for name, row := range byStrat {
			if name == "Hadoop-NS" {
				continue
			}
			if row.PoCD < ns.PoCD-0.05 {
				t.Errorf("%s: %s PoCD %v below Hadoop-NS %v", bench, name, row.PoCD, ns.PoCD)
			}
		}
		// Figure 2(c): Hadoop-NS utility is -Inf by construction.
		if !math.IsInf(ns.Utility, -1) {
			t.Errorf("%s: Hadoop-NS utility = %v, want -Inf", bench, ns.Utility)
		}
		// Chronos strategies beat Hadoop-NS on PoCD decisively.
		for _, name := range []string{"Clone", "Speculative-Restart", "Speculative-Resume"} {
			if byStrat[name].PoCD <= ns.PoCD {
				t.Errorf("%s: %s PoCD %v not above Hadoop-NS %v",
					bench, name, byStrat[name].PoCD, ns.PoCD)
			}
		}
		// Clone is the costliest Chronos strategy (launches clones for all
		// tasks up front).
		clone := byStrat["Clone"]
		resume := byStrat["Speculative-Resume"]
		if resume.Cost > clone.Cost*1.05 {
			t.Errorf("%s: S-Resume cost %v above Clone %v", bench, resume.Cost, clone.Cost)
		}
	}
}

func TestFig2Table(t *testing.T) {
	rows := []Fig2Row{{Benchmark: "Sort", Strategy: "Clone", PoCD: 0.9, Cost: 100, Utility: -0.3}}
	out := Fig2Table(rows).String()
	if len(out) == 0 || Fig2Table(rows).Rows() != 1 {
		t.Error("Fig2Table rendering broken")
	}
}

func TestRunTable1Shape(t *testing.T) {
	r := DefaultRunner()
	cfg := DefaultTableConfig()
	cfg.Trace = scaledTrace(fastTraceJobs)
	rows, err := RunTable1(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 1 Clone row + 3 each for S-Restart and S-Resume.
	if len(rows) != 7 {
		t.Fatalf("got %d rows, want 7", len(rows))
	}
	if rows[0].Strategy != "Clone" || rows[0].TauEstFactor != 0 {
		t.Errorf("first row must be Clone at tauEst=0, got %+v", rows[0])
	}
	for _, row := range rows {
		if row.PoCD < 0 || row.PoCD > 1 || row.Cost <= 0 {
			t.Errorf("row %+v out of range", row)
		}
		if row.Strategy != "Clone" && row.TauKillFactor-row.TauEstFactor != 0.5 {
			t.Errorf("tauKill - tauEst = %v, want 0.5", row.TauKillFactor-row.TauEstFactor)
		}
	}
	// The speculative strategies dominate Clone on PoCD in this sweep
	// (Table I shows ~0.99 vs 0.72): check the direction loosely.
	var cloneP, bestSpecP float64
	for _, row := range rows {
		if row.Strategy == "Clone" {
			cloneP = row.PoCD
		} else if row.PoCD > bestSpecP {
			bestSpecP = row.PoCD
		}
	}
	if bestSpecP < cloneP-0.05 {
		t.Errorf("best speculative PoCD %v well below Clone %v", bestSpecP, cloneP)
	}
}

func TestRunTable2Shape(t *testing.T) {
	r := DefaultRunner()
	cfg := DefaultTableConfig()
	cfg.Trace = scaledTrace(fastTraceJobs)
	rows, err := RunTable2(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("got %d rows, want 9", len(rows))
	}
	// Costs increase with tauKill within each strategy (later kills mean
	// longer-running clones/speculative attempts).
	byStrat := map[string][]TableRow{}
	for _, row := range rows {
		byStrat[row.Strategy] = append(byStrat[row.Strategy], row)
	}
	for name, series := range byStrat {
		for i := 1; i < len(series); i++ {
			if series[i].TauKillFactor < series[i-1].TauKillFactor {
				t.Errorf("%s rows out of sweep order", name)
			}
		}
	}
	if out := TableText(rows).String(); len(out) == 0 {
		t.Error("TableText rendering broken")
	}
}

func TestRunFigure3Shape(t *testing.T) {
	r := DefaultRunner()
	cfg := DefaultFig3Config()
	cfg.Trace = scaledTrace(fastTraceJobs)
	rows, err := RunFigure3(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4*4 {
		t.Fatalf("got %d rows, want 16", len(rows))
	}
	series := map[string][]Fig3Row{}
	for _, row := range rows {
		series[row.Strategy] = append(series[row.Strategy], row)
		if row.Strategy == "Mantri" && row.RHist != nil {
			t.Error("Mantri must not report an r histogram")
		}
		if row.Strategy != "Mantri" && row.RHist == nil {
			t.Errorf("%s missing r histogram", row.Strategy)
		}
	}
	// Figure 3(b): for the Chronos strategies cost is non-increasing in
	// theta (higher theta -> smaller optimal r -> cheaper).
	for _, name := range []string{"Clone", "Speculative-Restart", "Speculative-Resume"} {
		s := series[name]
		for i := 1; i < len(s); i++ {
			if s[i].Cost > s[i-1].Cost*1.05 {
				t.Errorf("%s cost increased from %v to %v as theta grew to %v",
					name, s[i-1].Cost, s[i].Cost, s[i].Theta)
			}
		}
	}
	// Figure 3(b): Mantri does not adapt to theta — its cost is flat across
	// the sweep and at least matches the reactive Chronos strategies'.
	mantri := series["Mantri"]
	minC, maxC := mantri[0].Cost, mantri[0].Cost
	for _, row := range mantri {
		minC = math.Min(minC, row.Cost)
		maxC = math.Max(maxC, row.Cost)
	}
	if maxC > minC*1.01 {
		t.Errorf("Mantri cost varies with theta: [%v, %v]", minC, maxC)
	}
	for i, row := range mantri {
		for _, name := range []string{"Speculative-Restart", "Speculative-Resume"} {
			if row.Cost < series[name][i].Cost*0.97 {
				t.Errorf("theta=%v: Mantri cost %v below %s cost %v",
					row.Theta, row.Cost, name, series[name][i].Cost)
			}
		}
	}
	// Figure 3(c): S-Resume attains the best net utility among the four
	// strategies at every theta (small slack for MC noise).
	for i, row := range series["Speculative-Resume"] {
		for _, name := range []string{"Mantri", "Clone", "Speculative-Restart"} {
			if row.Utility < series[name][i].Utility-0.02 {
				t.Errorf("theta=%v: S-Resume utility %v below %s utility %v",
					row.Theta, row.Utility, name, series[name][i].Utility)
			}
		}
	}
	if out := Fig3Table(rows).String(); len(out) == 0 {
		t.Error("Fig3Table rendering broken")
	}
}

func TestRunFigure4Shape(t *testing.T) {
	r := DefaultRunner()
	cfg := DefaultFig4Config()
	cfg.Jobs = 80
	cfg.Betas = []float64{1.1, 1.5, 1.9}
	rows, err := RunFigure4(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3*5 {
		t.Fatalf("got %d rows, want 15", len(rows))
	}
	series := map[string][]Fig4Row{}
	for _, row := range rows {
		series[row.Strategy] = append(series[row.Strategy], row)
	}
	// Figure 4(b): cost decreases with beta for every strategy (mean task
	// time shrinks).
	for name, s := range series {
		for i := 1; i < len(s); i++ {
			if s[i].Cost > s[i-1].Cost*1.05 {
				t.Errorf("%s cost grew from %v to %v as beta rose to %v",
					name, s[i-1].Cost, s[i].Cost, s[i].Beta)
			}
		}
	}
	// Figure 4(a)/(c): the Chronos strategies dominate Hadoop-NS on PoCD at
	// every beta.
	for i := range series["Hadoop-NS"] {
		ns := series["Hadoop-NS"][i]
		for _, name := range []string{"Clone", "Speculative-Restart", "Speculative-Resume"} {
			if series[name][i].PoCD < ns.PoCD-0.03 {
				t.Errorf("beta=%v: %s PoCD %v below Hadoop-NS %v",
					ns.Beta, name, series[name][i].PoCD, ns.PoCD)
			}
		}
	}
	if out := Fig4Table(rows).String(); len(out) == 0 {
		t.Error("Fig4Table rendering broken")
	}
}

func TestRunFigure5Shape(t *testing.T) {
	r := DefaultRunner()
	cfg := DefaultFig5Config()
	cfg.Fig3.Trace = scaledTrace(fastTraceJobs)
	series, err := RunFigure5(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Clone and S-Resume at two thetas each.
	if len(series) != 4 {
		t.Fatalf("got %d series, want 4", len(series))
	}
	modes := map[string]map[float64]int{}
	for _, s := range series {
		if s.Hist == nil || s.Hist.Total() == 0 {
			t.Fatalf("%s@%v: empty histogram", s.Strategy, s.Theta)
		}
		mode, _ := s.Hist.Mode()
		if modes[s.Strategy] == nil {
			modes[s.Strategy] = map[float64]int{}
		}
		modes[s.Strategy][s.Theta] = mode
	}
	// Figure 5: the dominant r shifts down as theta increases.
	for name, byTheta := range modes {
		if byTheta[1e-4] > byTheta[1e-5] {
			t.Errorf("%s: mode r at theta=1e-4 (%d) above theta=1e-5 (%d)",
				name, byTheta[1e-4], byTheta[1e-5])
		}
	}
	if out := Fig5Table(series).String(); len(out) == 0 {
		t.Error("Fig5Table rendering broken")
	}
}

// A zero Nodes or SlotsPerNode means the simulator's default, so the bad
// shape is a negative one; cluster.New rejects it through chronos.Simulate.
func TestRunnerRejectsBadShape(t *testing.T) {
	for _, r := range []Runner{{Nodes: -1, SlotsPerNode: 8}, {Nodes: 8, SlotsPerNode: -1}} {
		cfg := DefaultFig4Config()
		cfg.Jobs, cfg.Betas = 1, []float64{1.5}
		if _, err := RunFigure4(r, cfg); err == nil {
			t.Errorf("bad runner %+v accepted", r)
		}
	}
}
