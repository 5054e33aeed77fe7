package experiment

import (
	"chronos"
	"chronos/internal/metrics"
	"chronos/internal/pareto"
)

// Fig4Config parameterizes the beta sweep of Figure 4: task execution times
// are Pareto(tmin, beta) with beta swept over the heavy-tail range, and each
// job's deadline is 2x the mean task execution time.
type Fig4Config struct {
	// Betas is the sweep (paper: 1.1 through 1.9).
	Betas []float64
	// TMin is the Pareto scale shared by the sweep.
	TMin float64
	// Jobs and Tasks shape the batch per beta point.
	Jobs, Tasks int
	// DeadlineRatio multiplies the mean task time (paper: 2).
	DeadlineRatio float64
	// TauEstFactor and TauKillFactor position the control instants in
	// units of tmin.
	TauEstFactor, TauKillFactor float64
	// Theta and UnitPrice configure the optimizer and measured utility.
	Theta, UnitPrice float64
	// RMin enters the measured utility.
	RMin float64
}

// DefaultFig4Config mirrors the paper's sweep at reduced scale.
func DefaultFig4Config() Fig4Config {
	return Fig4Config{
		Betas:         []float64{1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9},
		TMin:          10,
		Jobs:          150,
		Tasks:         10,
		DeadlineRatio: 2,
		TauEstFactor:  0.3,
		TauKillFactor: 0.6,
		Theta:         1e-4,
		UnitPrice:     1,
	}
}

// Fig4Row is one (beta, strategy) point of Figures 4(a)-(c).
type Fig4Row struct {
	Beta     float64
	Strategy string
	PoCD     float64
	Cost     float64
	Utility  float64
}

// RunFigure4 sweeps beta over the five strategies of Figure 4.
func RunFigure4(r Runner, cfg Fig4Config) ([]Fig4Row, error) {
	econ := chronos.Econ{Theta: cfg.Theta, RMin: cfg.RMin, UnitPrice: cfg.UnitPrice}
	sc := r.config(econ, cfg.TauEstFactor, cfg.TauKillFactor, chronos.TauOfTMin)
	var rows []Fig4Row
	for _, beta := range cfg.Betas {
		dist, err := pareto.New(cfg.TMin, beta)
		if err != nil {
			return nil, err
		}
		deadline := cfg.DeadlineRatio * dist.Mean()
		jobs := chronos.Benchmark{TMin: cfg.TMin, Beta: beta, Deadline: deadline}.Jobs(cfg.Jobs, cfg.Tasks, deadline*4)
		for _, strat := range testbedStrategies {
			sc.Strategy = strat
			rep, err := chronos.Simulate(sc, jobs)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig4Row{
				Beta:     beta,
				Strategy: strat.String(),
				PoCD:     rep.PoCD,
				Cost:     rep.MeanCost,
				Utility:  rep.Utility,
			})
		}
	}
	return rows, nil
}

// Fig4Table renders the beta sweep.
func Fig4Table(rows []Fig4Row) *metrics.Table {
	t := metrics.NewTable("beta", "Strategy", "PoCD", "Cost", "Utility")
	for _, row := range rows {
		t.AddRow(
			metrics.FormatFloat(row.Beta, 1),
			row.Strategy,
			metrics.FormatFloat(row.PoCD, 3),
			metrics.FormatFloat(row.Cost, 1),
			metrics.FormatFloat(row.Utility, 3))
	}
	return t
}
