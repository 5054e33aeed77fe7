// Package experiment contains one driver per table and figure of the
// paper's evaluation (Section VII). Each driver is a client of the public
// simulation API: it builds the workload as []chronos.SimJob, runs every
// strategy through chronos.Simulate on common random numbers, and returns
// rows matching the paper's reported series:
//
//	Figure 2  — PoCD / Cost / Utility per benchmark (testbed experiment)
//	Table I   — sweep of tauEst with tauKill - tauEst fixed
//	Table II  — sweep of tauKill with tauEst fixed
//	Figure 3  — PoCD / Cost / Utility vs tradeoff factor theta (trace-driven)
//	Figure 4  — PoCD / Cost / Utility vs Pareto tail index beta
//	Figure 5  — histogram of the optimal r for Clone and S-Resume
package experiment

import (
	"chronos"
	"chronos/internal/trace"
	"chronos/internal/workload"
)

// Runner holds the cluster shape and seeding shared by all experiments: the
// part of a chronos.SimConfig that does not depend on the experiment.
type Runner struct {
	// Nodes and SlotsPerNode size the simulated cluster. The defaults
	// (DefaultRunner) keep capacity ample, matching the paper's
	// trace-driven simulator.
	Nodes        int
	SlotsPerNode int
	// ReportInterval and ReportNoise configure the AM's progress
	// observation (periodic, noisy reports, as in real Hadoop); zeros mean
	// continuous exact observation.
	ReportInterval, ReportNoise float64
	// Seed drives all randomness; two runs with equal seeds are identical,
	// and all strategies see common random numbers.
	Seed uint64
}

// DefaultRunner returns a generously provisioned, uncontended cluster.
func DefaultRunner() Runner {
	return Runner{Nodes: 512, SlotsPerNode: 8, Seed: 1}
}

// config returns the SimConfig of an experiment's runs on this runner, with
// the control instants on the given scale; the driver sets the strategy of
// each run.
func (r Runner) config(econ chronos.Econ, tauEst, tauKill float64, scale chronos.TauScale) chronos.SimConfig {
	return chronos.SimConfig{
		Nodes:          r.Nodes,
		SlotsPerNode:   r.SlotsPerNode,
		Seed:           r.Seed,
		ReportInterval: r.ReportInterval,
		ReportNoise:    r.ReportNoise,
		Econ:           econ,
		TauEst:         tauEst,
		TauKill:        tauKill,
		TauScale:       scale,
	}
}

// The strategy line-ups of the testbed-style experiments (Figures 2 and 4)
// and of the trace-driven tau sweeps (Tables I and II).
var (
	testbedStrategies = []chronos.Strategy{
		chronos.HadoopNS, chronos.HadoopS,
		chronos.Clone, chronos.SpeculativeRestart, chronos.SpeculativeResume,
	}
	reactiveStrategies = []chronos.Strategy{chronos.SpeculativeRestart, chronos.SpeculativeResume}
)

// profileJobs expands a benchmark profile into n identical jobs of the given
// task count, spaced spacing seconds apart.
func profileJobs(p workload.Profile, n, tasks int, spacing float64) []chronos.SimJob {
	b := chronos.Benchmark{TMin: p.Dist.TMin, Beta: p.Dist.Beta, Deadline: p.Deadline}
	return b.Jobs(n, tasks, spacing)
}

// traceJobs generates the synthetic trace as a job stream.
func traceJobs(cfg trace.GeneratorConfig) ([]chronos.SimJob, error) {
	records, err := trace.Generate(cfg)
	if err != nil {
		return nil, err
	}
	jobs := make([]chronos.SimJob, len(records))
	for i, rec := range records {
		jobs[i] = chronos.SimJob{
			Tasks:    rec.NumTasks,
			Deadline: rec.Deadline,
			TMin:     rec.Dist.TMin,
			Beta:     rec.Dist.Beta,
			Arrival:  rec.Arrival,
		}
	}
	return jobs, nil
}
