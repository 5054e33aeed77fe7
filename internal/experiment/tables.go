package experiment

import (
	"chronos"
	"chronos/internal/metrics"
	"chronos/internal/trace"
)

// TableConfig parameterizes the Table I / Table II sweeps. Both tables come
// from the trace-driven simulation; tauEst and tauKill are expressed as
// multiples of each job's tmin, per the paper.
type TableConfig struct {
	// Trace shapes the synthetic job stream.
	Trace trace.GeneratorConfig
	// Theta and RMin configure the measured-utility computation.
	Theta float64
	RMin  float64
	// UnitPrice is the per-machine-second VM price C.
	UnitPrice float64
}

// DefaultTableConfig mirrors the paper's simulation at reduced scale.
func DefaultTableConfig() TableConfig {
	return TableConfig{
		Trace:     scaledTrace(120),
		Theta:     1e-5,
		UnitPrice: 1,
	}
}

// scaledTrace returns the default generator shrunk to n jobs with modest
// task counts, keeping unit tests and benchmarks fast.
func scaledTrace(n int) trace.GeneratorConfig {
	cfg := trace.DefaultGeneratorConfig()
	cfg.Jobs = n
	cfg.MaxTasks = 100
	return cfg
}

// TableRow is one row of Table I or Table II.
type TableRow struct {
	Strategy string
	// TauEstFactor and TauKillFactor are the sweep coordinates, in units
	// of each job's tmin.
	TauEstFactor, TauKillFactor float64
	PoCD                        float64
	Cost                        float64
	Utility                     float64
}

// RunTable1 reproduces Table I: varying tauEst with tauKill - tauEst fixed
// at 0.5*tmin. Clone has only tauEst = 0; S-Restart and S-Resume sweep
// tauEst in {0.1, 0.3, 0.5}*tmin.
func RunTable1(r Runner, cfg TableConfig) ([]TableRow, error) {
	jobs, err := traceJobs(cfg.Trace)
	if err != nil {
		return nil, err
	}
	var rows []TableRow

	// Clone: tauEst fixed at 0, tauKill = 0.5*tmin.
	row, err := runTableCell(r, cfg, jobs, chronos.Clone, 0, 0.5)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)

	for _, strat := range reactiveStrategies {
		for _, estFactor := range []float64{0.1, 0.3, 0.5} {
			row, err := runTableCell(r, cfg, jobs, strat, estFactor, estFactor+0.5)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RunTable2 reproduces Table II: varying tauKill with tauEst fixed. Clone
// sweeps tauKill in {0.4, 0.6, 0.8}*tmin at tauEst = 0; the speculative
// strategies use tauEst = 0.3*tmin.
func RunTable2(r Runner, cfg TableConfig) ([]TableRow, error) {
	jobs, err := traceJobs(cfg.Trace)
	if err != nil {
		return nil, err
	}
	var rows []TableRow
	for _, killFactor := range []float64{0.4, 0.6, 0.8} {
		row, err := runTableCell(r, cfg, jobs, chronos.Clone, 0, killFactor)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	for _, strat := range reactiveStrategies {
		for _, killFactor := range []float64{0.4, 0.6, 0.8} {
			row, err := runTableCell(r, cfg, jobs, strat, 0.3, killFactor)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// runTableCell executes one (strategy, tauEst, tauKill) sweep point over
// the whole trace.
func runTableCell(r Runner, cfg TableConfig, jobs []chronos.SimJob,
	strat chronos.Strategy, estFactor, killFactor float64) (TableRow, error) {

	econ := chronos.Econ{Theta: cfg.Theta, RMin: cfg.RMin, UnitPrice: cfg.UnitPrice}
	sc := r.config(econ, estFactor, killFactor, chronos.TauOfTMin)
	sc.Strategy = strat
	rep, err := chronos.Simulate(sc, jobs)
	if err != nil {
		return TableRow{}, err
	}
	return TableRow{
		Strategy:      strat.String(),
		TauEstFactor:  estFactor,
		TauKillFactor: killFactor,
		PoCD:          rep.PoCD,
		Cost:          rep.MeanCost,
		Utility:       rep.Utility,
	}, nil
}

// TableText renders sweep rows in the paper's Table I/II layout.
func TableText(rows []TableRow) *metrics.Table {
	t := metrics.NewTable("Strategy", "tauEst", "tauKill", "PoCD", "Cost", "Utility")
	for _, row := range rows {
		t.AddRow(row.Strategy,
			metrics.FormatFloat(row.TauEstFactor, 1)+"*tmin",
			metrics.FormatFloat(row.TauKillFactor, 1)+"*tmin",
			metrics.FormatFloat(row.PoCD, 3),
			metrics.FormatFloat(row.Cost, 1),
			metrics.FormatFloat(row.Utility, 3))
	}
	return t
}
