// Package trace provides the trace-driven-simulation substrate of the
// paper's large-scale evaluation: a synthetic generator of Google-trace-like
// MapReduce job streams and Pareto fitting of empirical task-time samples.
//
// Substitution note (see DESIGN.md): the paper replays 30 hours of the 2011
// Google cluster trace (2700 jobs, ~1M tasks), extracting per job only the
// start time, task count, and an execution-time distribution it then
// re-samples as Pareto. The synthetic generator below emits exactly that
// tuple stream with the published shape characteristics — Poisson-ish
// arrivals, heavy-tailed task counts, per-job Pareto parameters — so every
// downstream code path (per-job optimization, strategy simulation, cost
// accounting) is exercised identically.
package trace

import (
	"fmt"
	"math"
	"sort"

	"chronos/internal/pareto"
)

// JobRecord is one job extracted from (or generated in place of) the trace:
// the tuple the paper's simulator consumes.
type JobRecord struct {
	// ID is the trace job identifier.
	ID int
	// Arrival is the submission time in seconds from trace start.
	Arrival float64
	// NumTasks is the job's task count.
	NumTasks int
	// Dist is the fitted per-attempt execution time distribution.
	Dist pareto.Dist
	// Deadline is the job deadline in seconds after arrival.
	Deadline float64
}

// GeneratorConfig shapes the synthetic trace.
type GeneratorConfig struct {
	// Jobs is the number of jobs to generate (2700 in the paper's run).
	Jobs int
	// Horizon is the arrival window in seconds (30 h in the paper's run).
	Horizon float64
	// MinTasks/MaxTasks bound the per-job task count; counts are drawn
	// log-uniformly, giving the heavy-tailed job-size mix of the Google
	// trace.
	MinTasks, MaxTasks int
	// TMinLow/TMinHigh bound the per-job Pareto scale (uniform draw).
	TMinLow, TMinHigh float64
	// BetaLow/BetaHigh bound the per-job Pareto tail index (uniform draw);
	// the paper's measurements give beta < 2.
	BetaLow, BetaHigh float64
	// DeadlineRatio sets Deadline = ratio * mean task execution time
	// (the Figure 4 simulations use 2).
	DeadlineRatio float64
	// Seed drives all draws.
	Seed uint64
}

// DefaultGeneratorConfig mirrors the paper's simulation at 1/10 scale: 270
// jobs over 3 hours. Scale Jobs and Horizon together to reach the full
// 2700-job run.
func DefaultGeneratorConfig() GeneratorConfig {
	return GeneratorConfig{
		Jobs:     270,
		Horizon:  3 * 3600,
		MinTasks: 5,
		MaxTasks: 2000,
		// TMinLow stays above the JVM-startup scale (1-3 s) so that
		// tau instants expressed as fractions of tmin land after the
		// first progress reports, as on the paper's testbed where
		// tmin >> JVM delay.
		TMinLow:       15,
		TMinHigh:      50,
		BetaLow:       1.1,
		BetaHigh:      1.9,
		DeadlineRatio: 2,
		Seed:          1,
	}
}

// Validate reports configuration errors.
func (c GeneratorConfig) Validate() error {
	if c.Jobs < 1 {
		return fmt.Errorf("trace: jobs %d < 1", c.Jobs)
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("trace: horizon %v <= 0", c.Horizon)
	}
	if c.MinTasks < 1 || c.MaxTasks < c.MinTasks {
		return fmt.Errorf("trace: task bounds [%d, %d]", c.MinTasks, c.MaxTasks)
	}
	if c.TMinLow <= 0 || c.TMinHigh < c.TMinLow {
		return fmt.Errorf("trace: tmin bounds [%v, %v]", c.TMinLow, c.TMinHigh)
	}
	if c.BetaLow <= 1 || c.BetaHigh < c.BetaLow {
		return fmt.Errorf("trace: beta bounds (%v, %v] must exceed 1", c.BetaLow, c.BetaHigh)
	}
	if c.DeadlineRatio <= 1 {
		return fmt.Errorf("trace: deadline ratio %v must exceed 1", c.DeadlineRatio)
	}
	return nil
}

// Generate produces the synthetic job stream, sorted by arrival.
func Generate(cfg GeneratorConfig) ([]JobRecord, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := pareto.NewStream(cfg.Seed, 0xC0FFEE)
	jobs := make([]JobRecord, cfg.Jobs)
	logMin, logMax := math.Log(float64(cfg.MinTasks)), math.Log(float64(cfg.MaxTasks))
	for i := range jobs {
		tasks := int(math.Exp(logMin + rng.Float64()*(logMax-logMin)))
		if tasks < cfg.MinTasks {
			tasks = cfg.MinTasks
		}
		if tasks > cfg.MaxTasks {
			tasks = cfg.MaxTasks
		}
		tmin := cfg.TMinLow + rng.Float64()*(cfg.TMinHigh-cfg.TMinLow)
		beta := cfg.BetaLow + rng.Float64()*(cfg.BetaHigh-cfg.BetaLow)
		dist := pareto.Dist{TMin: tmin, Beta: beta}
		jobs[i] = JobRecord{
			ID:       i,
			Arrival:  rng.Float64() * cfg.Horizon,
			NumTasks: tasks,
			Dist:     dist,
			Deadline: cfg.DeadlineRatio * dist.Mean(),
		}
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].Arrival < jobs[b].Arrival })
	for i := range jobs {
		jobs[i].ID = i // re-key in arrival order
	}
	return jobs, nil
}

// TotalTasks sums the task counts of a job stream.
func TotalTasks(jobs []JobRecord) int {
	total := 0
	for _, j := range jobs {
		total += j.NumTasks
	}
	return total
}
