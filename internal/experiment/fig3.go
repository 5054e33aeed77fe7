package experiment

import (
	"chronos"
	"chronos/internal/metrics"
	"chronos/internal/trace"
)

// Fig3Config parameterizes the theta sweep of Figure 3 (and, via the
// recorded r histograms, Figure 5).
type Fig3Config struct {
	// Trace shapes the synthetic job stream.
	Trace trace.GeneratorConfig
	// Thetas is the sweep (paper: 1e-6, 1e-5, 1e-4, 1e-3).
	Thetas []float64
	// TauEstFactor and TauKillFactor position the control instants in
	// units of each job's tmin (0.3 and 0.6, the best points of Tables
	// I/II).
	TauEstFactor, TauKillFactor float64
	// UnitPrice is the per-machine-second VM price C.
	UnitPrice float64
	// RMin enters the measured utility.
	RMin float64
}

// DefaultFig3Config mirrors the paper's sweep at reduced trace scale.
func DefaultFig3Config() Fig3Config {
	return Fig3Config{
		Trace:         scaledTrace(120),
		Thetas:        []float64{1e-6, 1e-5, 1e-4, 1e-3},
		TauEstFactor:  0.3,
		TauKillFactor: 0.6,
		UnitPrice:     1,
	}
}

// Fig3Row is one (theta, strategy) point of Figures 3(a)-(c).
type Fig3Row struct {
	Theta    float64
	Strategy string
	PoCD     float64
	Cost     float64
	Utility  float64
	// RHist records the optimizer-chosen r distribution (Figure 5 input);
	// nil for Mantri, which does not optimize r.
	RHist metrics.Histogram
}

// RunFigure3 sweeps theta over Mantri, Clone, S-Restart, and S-Resume on a
// common trace.
func RunFigure3(r Runner, cfg Fig3Config) ([]Fig3Row, error) {
	jobs, err := traceJobs(cfg.Trace)
	if err != nil {
		return nil, err
	}
	var rows []Fig3Row
	for _, theta := range cfg.Thetas {
		econ := chronos.Econ{Theta: theta, RMin: cfg.RMin, UnitPrice: cfg.UnitPrice}
		sc := r.config(econ, cfg.TauEstFactor, cfg.TauKillFactor, chronos.TauOfTMin)
		for _, strat := range append([]chronos.Strategy{chronos.Mantri}, chronos.ChronosStrategies()...) {
			sc.Strategy = strat
			rep, err := chronos.Simulate(sc, jobs)
			if err != nil {
				return nil, err
			}
			row := Fig3Row{
				Theta:    theta,
				Strategy: strat.String(),
				PoCD:     rep.PoCD,
				Cost:     rep.MeanCost,
				Utility:  rep.Utility,
			}
			if strat != chronos.Mantri {
				row.RHist = rep.RHistogram
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Fig3Table renders the theta sweep.
func Fig3Table(rows []Fig3Row) *metrics.Table {
	t := metrics.NewTable("theta", "Strategy", "PoCD", "Cost", "Utility")
	for _, row := range rows {
		t.AddRow(
			metrics.FormatFloat(row.Theta, 6),
			row.Strategy,
			metrics.FormatFloat(row.PoCD, 3),
			metrics.FormatFloat(row.Cost, 1),
			metrics.FormatFloat(row.Utility, 3))
	}
	return t
}
