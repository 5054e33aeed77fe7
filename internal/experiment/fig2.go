package experiment

import (
	"math"

	"chronos"
	"chronos/internal/metrics"
	"chronos/internal/optimize"
	"chronos/internal/workload"
)

// Fig2Config parameterizes the testbed-style experiment of Figure 2:
// 100 jobs of 10 tasks per benchmark; deadlines 100 s (Sort, TeraSort) and
// 150 s (SecondarySort, WordCount); tauEst = 40 s, tauKill = 80 s;
// theta = 1e-4; Rmin = measured PoCD of Hadoop-NS.
type Fig2Config struct {
	// Jobs is the number of jobs per benchmark (paper: 100).
	Jobs int
	// Tasks is the number of map tasks per job (paper: 10).
	Tasks int
	// TauEst and TauKill are the Chronos control instants (paper: 40, 80).
	TauEst, TauKill float64
	// Theta is the tradeoff factor (paper: 1e-4).
	Theta float64
	// UnitPrice is the per-machine-second VM price C.
	UnitPrice float64
	// JobSpacing separates consecutive job arrivals (seconds).
	JobSpacing float64
}

// DefaultFig2Config reproduces the paper's settings.
func DefaultFig2Config() Fig2Config {
	return Fig2Config{
		Jobs:       100,
		Tasks:      10,
		TauEst:     40,
		TauKill:    80,
		Theta:      1e-4,
		UnitPrice:  1,
		JobSpacing: 400,
	}
}

// Fig2Row is one (benchmark, strategy) cell of Figures 2(a)-(c).
type Fig2Row struct {
	Benchmark string
	Strategy  string
	PoCD      float64
	Cost      float64
	Utility   float64
	RHist     metrics.Histogram
}

// RunFigure2 executes the five strategies on the four benchmarks and
// returns rows in (benchmark, strategy) order. The Hadoop-NS PoCD of each
// benchmark is used as that benchmark's Rmin, so Hadoop-NS's own utility is
// -Inf, exactly as in Figure 2(c).
func RunFigure2(r Runner, cfg Fig2Config) ([]Fig2Row, error) {
	var rows []Fig2Row
	for _, prof := range workload.Profiles() {
		jobs := profileJobs(prof, cfg.Jobs, cfg.Tasks, cfg.JobSpacing)
		sc := r.config(chronos.Econ{Theta: cfg.Theta, UnitPrice: cfg.UnitPrice}, cfg.TauEst, cfg.TauKill, chronos.TauAbsolute)
		sc.JVMMin, sc.JVMMax = prof.JVM.Min, prof.JVM.Max

		var rmin float64
		for _, strat := range testbedStrategies {
			sc.Strategy = strat
			rep, err := chronos.Simulate(sc, jobs)
			if err != nil {
				return nil, err
			}
			if strat == chronos.HadoopNS {
				rmin = rep.PoCD
				// Keep Rmin strictly below 1 so feasible strategies exist.
				if rmin >= 1 {
					rmin = 1 - 1e-6
				}
			}
			ucfg := optimize.Config{Theta: cfg.Theta, UnitPrice: cfg.UnitPrice, RMin: rmin}
			utility := ucfg.UtilityFromMeasured(rep.PoCD, rep.MeanCost)
			if strat == chronos.HadoopNS {
				utility = math.Inf(-1) // R == Rmin by construction
			}
			rows = append(rows, Fig2Row{
				Benchmark: prof.Name,
				Strategy:  strat.String(),
				PoCD:      rep.PoCD,
				Cost:      rep.MeanCost,
				Utility:   utility,
				RHist:     rep.RHistogram,
			})
		}
	}
	return rows, nil
}

// Fig2Table renders the rows as the three-column table of Figure 2.
func Fig2Table(rows []Fig2Row) *metrics.Table {
	t := metrics.NewTable("Benchmark", "Strategy", "PoCD", "Cost", "Utility")
	for _, row := range rows {
		t.AddRow(row.Benchmark, row.Strategy,
			metrics.FormatFloat(row.PoCD, 3),
			metrics.FormatFloat(row.Cost, 1),
			metrics.FormatFloat(row.Utility, 3))
	}
	return t
}
