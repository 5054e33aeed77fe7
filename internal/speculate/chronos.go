package speculate

import (
	"math"

	"chronos/internal/analysis"
	"chronos/internal/mapreduce"
)

// The three Chronos strategies share their stage orchestration: the map
// stage runs from job arrival; if the job has a reduce stage, it is planned
// separately when the last map task commits (the paper: "PoCD for map and
// reduce stages can be optimized separately"), against the deadline budget
// remaining at that instant.

// Clone is the proactive Chronos strategy: r+1 attempts of every task start
// at stage begin; at tauKill the best-progress attempt survives.
type Clone struct {
	Config ChronosConfig
}

var _ mapreduce.Strategy = Clone{}

// Name implements mapreduce.Strategy.
func (Clone) Name() string { return "Clone" }

// Start implements mapreduce.Strategy.
func (s Clone) Start(ctl *mapreduce.Controller) {
	cfg := s.Config.withDefaults()
	relaunchOnLoss(ctl)
	runStages(ctl, func(st stage) { s.runStage(ctl, cfg, st) })
}

// runStage launches the clones for one stage and schedules the prune.
func (s Clone) runStage(ctl *mapreduce.Controller, cfg ChronosConfig, st stage) {
	r := cfg.chooseStageR(analysis.StrategyClone, ctl.Job(), st)
	st.recordR(ctl.Job(), r)
	for _, t := range st.tasks {
		for k := 0; k <= r; k++ {
			ctl.Launch(t, 0)
		}
	}
	ctl.After(cfg.TauKill, func() {
		for _, t := range st.tasks {
			keepBestKillRest(ctl, t, cfg.Estimator)
		}
	})
}

// Restart is the reactive restart strategy: stragglers detected at tauEst
// (estimated completion beyond the deadline) get r extra from-scratch
// attempts; at tauKill the best attempt of each task survives.
type Restart struct {
	Config ChronosConfig
}

var _ mapreduce.Strategy = Restart{}

// Name implements mapreduce.Strategy.
func (Restart) Name() string { return "Speculative-Restart" }

// Start implements mapreduce.Strategy.
func (s Restart) Start(ctl *mapreduce.Controller) {
	cfg := s.Config.withDefaults()
	relaunchOnLoss(ctl)
	runStages(ctl, func(st stage) { s.runStage(ctl, cfg, st) })
}

// runStage launches originals, detects stragglers at stage-relative tauEst,
// and prunes at tauKill.
func (s Restart) runStage(ctl *mapreduce.Controller, cfg ChronosConfig, st stage) {
	job := ctl.Job()
	r := cfg.chooseStageR(analysis.StrategyRestart, job, st)
	st.recordR(job, r)
	for _, t := range st.tasks {
		ctl.Launch(t, 0)
	}
	ctl.After(cfg.TauEst, func() {
		now := ctl.Now()
		for _, t := range st.tasks {
			if t.Done || !isStraggler(t, now, cfg.Estimator, job.Deadline()) {
				continue
			}
			for k := 0; k < r; k++ {
				ctl.Launch(t, 0)
			}
		}
	})
	ctl.After(cfg.TauKill, func() {
		for _, t := range st.tasks {
			keepBestKillRest(ctl, t, cfg.Estimator)
		}
	})
}

// Resume is the work-preserving reactive strategy: a straggler detected at
// tauEst is killed and replaced by r+1 attempts that continue from the
// anticipated byte offset (Eq. 31), skipping already-processed data.
type Resume struct {
	Config ChronosConfig
}

var _ mapreduce.Strategy = Resume{}

// Name implements mapreduce.Strategy.
func (Resume) Name() string { return "Speculative-Resume" }

// Start implements mapreduce.Strategy.
func (s Resume) Start(ctl *mapreduce.Controller) {
	cfg := s.Config.withDefaults()
	relaunchOnLoss(ctl)
	runStages(ctl, func(st stage) { s.runStage(ctl, cfg, st) })
}

// runStage launches originals, replaces stragglers with resumed attempts at
// stage-relative tauEst, and prunes at tauKill.
func (s Resume) runStage(ctl *mapreduce.Controller, cfg ChronosConfig, st stage) {
	job := ctl.Job()
	r := cfg.chooseStageR(analysis.StrategyResume, job, st)
	st.recordR(job, r)
	for _, t := range st.tasks {
		ctl.Launch(t, 0)
	}
	ctl.After(cfg.TauEst, func() {
		now := ctl.Now()
		for _, t := range st.tasks {
			if t.Done {
				continue
			}
			orig := t.BestRunning(now, cfg.Estimator)
			if orig == nil || cfg.Estimator(orig, now) <= job.Deadline() {
				continue
			}
			// Work-preserving handoff: new attempts start past the bytes
			// the original will have processed by the time their JVMs are
			// up; then the straggler is killed.
			frac := mapreduce.AnticipatedResumeFrac(orig, now)
			if frac >= 1 {
				continue // effectively done; let it finish
			}
			for _, a := range t.Attempts {
				ctl.Kill(a) // a no-op on attempts that already ended
			}
			for k := 0; k <= r; k++ {
				ctl.Launch(t, frac)
			}
		}
	})
	ctl.After(cfg.TauKill, func() {
		for _, t := range st.tasks {
			keepBestKillRest(ctl, t, cfg.Estimator)
		}
	})
}

// stage bundles the per-stage planning context.
type stage struct {
	kind mapreduce.StageKind
	// tasks are the stage's tasks.
	tasks []*mapreduce.Task
	// budget is the planning deadline for the optimizer (seconds from the
	// stage start).
	budget float64
}

// recordR stores the chosen r on the job for the Figure 5 histograms.
func (st stage) recordR(job *mapreduce.Job, r int) {
	if st.kind == mapreduce.StageReduce {
		job.ChosenReduceR = r
	} else {
		job.ChosenR = r
	}
}

// runStages invokes run for the map stage now and, if the job has a reduce
// stage, again when the map stage commits — with the reduce budget set to
// the deadline time remaining at that instant.
func runStages(ctl *mapreduce.Controller, run func(stage)) {
	job := ctl.Job()
	run(stage{
		kind:   mapreduce.StageMap,
		tasks:  job.MapTasks(),
		budget: job.Spec.MapBudget(),
	})
	if !job.Spec.Reduce.Enabled() {
		return
	}
	ctl.OnMapStageDone(func() {
		remaining := job.Deadline() - ctl.Now()
		run(stage{
			kind:   mapreduce.StageReduce,
			tasks:  job.ReduceTasks(),
			budget: remaining,
		})
	})
}

// isStraggler reports whether the task's best running attempt is estimated
// to miss the absolute deadline. Tasks with no running attempt (still queued
// under cluster contention) are stragglers by definition.
func isStraggler(t *mapreduce.Task, now float64, est mapreduce.Estimator, deadline float64) bool {
	best := t.BestRunning(now, est)
	if best == nil {
		return true
	}
	return est(best, now) > deadline
}

// relaunchOnLoss recovers from node failures by launching a fresh attempt
// for the lost one's task (restart semantics: resume state on the failed
// node is gone).
func relaunchOnLoss(ctl *mapreduce.Controller) {
	ctl.OnAttemptLost(func(a *mapreduce.Attempt) {
		if !a.Task.Done {
			ctl.Launch(a.Task, 0)
		}
	})
}

// stageParams builds the analytic inputs for one stage of a job.
func stageParams(job *mapreduce.Job, st stage, cfg ChronosConfig) analysis.Params {
	spec := job.Spec
	dist := spec.Dist
	if st.kind == mapreduce.StageReduce {
		dist = spec.Reduce.Dist
	}
	budget := st.budget
	if math.IsNaN(budget) || budget <= 0 {
		budget = dist.TMin * 1.01 // hopeless budget; validation will reject
	}
	return analysis.Params{
		N:        len(st.tasks),
		Deadline: budget,
		Task:     dist,
		TauEst:   cfg.TauEst,
		TauKill:  cfg.TauKill,
	}
}
