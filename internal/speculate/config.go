// Package speculate implements the speculation strategies evaluated in the
// Chronos paper on top of the mapreduce substrate:
//
//   - the three Chronos strategies — Clone, Speculative-Restart and
//     Speculative-Resume, one type keyed by analysis.Strategy — each of which
//     picks its number of extra attempts r by solving the joint PoCD/cost
//     optimization (Algorithm 1) at job submission;
//   - the paper's three baselines — Hadoop-NS (no speculation), Hadoop-S
//     (default Hadoop speculation) and Mantri.
package speculate

import (
	"math"

	"chronos/internal/analysis"
	"chronos/internal/mapreduce"
	"chronos/internal/optimize"
)

// ChronosConfig is shared by the three Chronos strategies.
type ChronosConfig struct {
	// TauEst is the straggler-detection instant, in seconds after the
	// stage starts (job arrival for the map stage, the last map commit for
	// the reduce stage). Ignored by Clone.
	TauEst float64
	// TauKill is the instant at which all but the best attempt of each
	// unfinished task are killed, in seconds after the stage starts.
	TauKill float64
	// Opt carries theta and RMin for the net-utility optimization. The
	// unit price is taken from each job's spec; Opt.UnitPrice is ignored.
	Opt optimize.Config
	// FixedR, when >= 0, bypasses the optimizer and uses the given number
	// of extra attempts. Used by ablation benchmarks. Default -1.
	FixedR int
	// Estimator predicts attempt completion times; defaults to the
	// improved Chronos estimator (Eq. 30).
	Estimator mapreduce.Estimator
}

// withDefaults fills zero values.
func (c ChronosConfig) withDefaults() ChronosConfig {
	if c.Estimator == nil {
		c.Estimator = mapreduce.ChronosEstimator
	}
	return c
}

// chooseStageR solves the joint optimization for one stage of a job that
// starts at now, as the AM does in the paper's prototype (and again at
// reduce-stage start). It plans the paper's single-wave setting: capacity is
// taken as unlimited. On optimizer failure (infeasible RMin, degenerate
// parameters such as no more than tmin left before the stage deadline) it
// falls back to r = 1, which mirrors Hadoop's single speculative copy.
func (c ChronosConfig) chooseStageR(s analysis.Strategy, job *mapreduce.Job, st stage, now float64) int {
	if c.FixedR >= 0 {
		return c.FixedR
	}
	cfg := c.Opt
	cfg.UnitPrice = job.Spec.UnitPrice
	res, err := optimize.SolveStrategy(s, stageParams(job, st, now, c), cfg)
	if err != nil {
		return 1
	}
	return res.R
}

// launchOriginals starts one original attempt per task of every stage, as
// its stage begins. The baselines use this.
func launchOriginals(ctl *mapreduce.Controller) {
	runStages(ctl, func(st stage) {
		for _, t := range st.tasks {
			ctl.Launch(t, 0)
		}
	})
}

// killLeftoversOnTaskDone mirrors production Hadoop: the moment a task
// commits, its redundant attempts are killed. Hadoop-S and Mantri use this;
// the Chronos strategies instead follow the paper's model and clean up at
// tauKill.
func killLeftoversOnTaskDone(ctl *mapreduce.Controller) {
	ctl.OnTaskDone(func(t *mapreduce.Task) {
		for _, a := range t.Attempts {
			ctl.Kill(a) // a no-op on attempts that already ended
		}
	})
}

// keepBestKillRest retains the attempt with the smallest estimated
// completion among the task's running attempts and kills every other active
// attempt (including queued ones). For tasks that already completed, every
// leftover redundant attempt is killed.
func keepBestKillRest(ctl *mapreduce.Controller, t *mapreduce.Task, est mapreduce.Estimator) {
	var best *mapreduce.Attempt
	if !t.Done {
		var bestEst float64
		best, bestEst = t.BestRunning(ctl.Now(), est)
		// If nothing is running yet (all attempts queued behind a saturated
		// cluster), killing would wedge the task forever.
		if best == nil {
			return
		}
		// If no attempt has produced a progress report yet (every estimate
		// is +Inf), killing would be a blind pick among indistinguishable
		// attempts — possibly discarding the fastest. Defer to natural
		// completion instead.
		if math.IsInf(bestEst, 1) {
			return
		}
	}
	for _, a := range t.Attempts {
		if a != best {
			ctl.Kill(a) // a no-op on attempts that already ended
		}
	}
}
