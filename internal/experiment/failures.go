package experiment

import (
	"chronos"
	"chronos/internal/metrics"
	"chronos/internal/workload"
)

// The failure-resilience experiment is an extension beyond the paper's
// tables: Section VII closes by noting that "S-Resume may not be possible in
// certain (extreme) scenarios such as system breakdown or VM crash, where
// only S-Restart is feasible". This experiment quantifies that remark by
// sweeping node MTBF and measuring how each strategy's PoCD and cost degrade
// when attempts are lost to node failures (all strategies here recover by
// relaunching from scratch — resume state dies with the node).

// FailureConfig parameterizes the sweep.
type FailureConfig struct {
	// MTBFs are the per-node mean-time-between-failures points (seconds);
	// 0 means no failures (the baseline column).
	MTBFs []float64
	// MTTR is the mean repair time (seconds).
	MTTR float64
	// Jobs and Tasks shape the batch per point.
	Jobs, Tasks int
	// Benchmark selects the workload profile.
	Benchmark workload.Profile
	// TauEst, TauKill, Theta, UnitPrice configure the Chronos strategies.
	TauEst, TauKill  float64
	Theta, UnitPrice float64
}

// DefaultFailureConfig sweeps from a stable cluster to one failing every
// few minutes per node.
func DefaultFailureConfig() FailureConfig {
	return FailureConfig{
		MTBFs:     []float64{0, 3600, 900, 300},
		MTTR:      60,
		Jobs:      100,
		Tasks:     10,
		Benchmark: workload.Sort,
		TauEst:    40,
		TauKill:   80,
		Theta:     1e-4,
		UnitPrice: 1,
	}
}

// FailureRow is one (MTBF, strategy) cell.
type FailureRow struct {
	MTBF     float64
	Strategy string
	PoCD     float64
	Cost     float64
	// Relaunches counts attempts lost to node failures across the batch.
	Relaunches int
}

// RunFailures executes the sweep over Hadoop-NS, S-Restart and S-Resume.
func RunFailures(r Runner, cfg FailureConfig) ([]FailureRow, error) {
	jobs := profileJobs(cfg.Benchmark, cfg.Jobs, cfg.Tasks, cfg.Benchmark.Deadline*4)
	sc := r.config(chronos.Econ{Theta: cfg.Theta, UnitPrice: cfg.UnitPrice}, cfg.TauEst, cfg.TauKill, chronos.TauAbsolute)
	sc.JVMMin, sc.JVMMax = cfg.Benchmark.JVM.Min, cfg.Benchmark.JVM.Max
	var rows []FailureRow
	for _, mtbf := range cfg.MTBFs {
		sc.Failures = &chronos.FailureModel{MTBF: mtbf, MTTR: cfg.MTTR}
		for _, strat := range []chronos.Strategy{chronos.HadoopNS, chronos.SpeculativeRestart, chronos.SpeculativeResume} {
			sc.Strategy = strat
			rep, err := chronos.Simulate(sc, jobs)
			if err != nil {
				return nil, err
			}
			rows = append(rows, FailureRow{
				MTBF:       mtbf,
				Strategy:   strat.String(),
				PoCD:       rep.PoCD,
				Cost:       rep.MeanCost,
				Relaunches: rep.LostAttempts,
			})
		}
	}
	return rows, nil
}

// FailureTable renders the sweep.
func FailureTable(rows []FailureRow) *metrics.Table {
	t := metrics.NewTable("MTBF(s)", "Strategy", "PoCD", "Cost", "Lost attempts")
	for _, row := range rows {
		mtbf := "none"
		if row.MTBF > 0 {
			mtbf = metrics.FormatFloat(row.MTBF, 0)
		}
		t.AddRow(mtbf, row.Strategy,
			metrics.FormatFloat(row.PoCD, 3),
			metrics.FormatFloat(row.Cost, 1),
			metrics.FormatFloat(float64(row.Relaunches), 0))
	}
	return t
}
