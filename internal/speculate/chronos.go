package speculate

import (
	"math"

	"chronos/internal/analysis"
	"chronos/internal/mapreduce"
)

// Chronos is the paper's strategy family, keyed by the closed form that plans
// it. Every member plans r per stage, starts attempts at stage begin and
// prunes each task to its best attempt at tauKill; they differ in how many
// copies start with the stage and in what happens at tauEst:
//
//   - Clone (proactive): r+1 attempts of every task start at stage begin, and
//     nothing happens at tauEst — no event is even scheduled.
//   - Speculative-Restart: one attempt per task; a straggler detected at
//     tauEst (estimated completion beyond the deadline) gets r extra
//     from-scratch attempts.
//   - Speculative-Resume: one attempt per task; a straggler detected at
//     tauEst is killed and replaced by r+1 attempts that continue from the
//     anticipated byte offset (Eq. 31), skipping already-processed data.
//
// The map stage runs from job arrival; if the job has a reduce stage, it is
// planned separately when the last map task commits (the paper: "PoCD for map
// and reduce stages can be optimized separately"), against the deadline
// budget remaining at that instant.
type Chronos struct {
	Kind   analysis.Strategy
	Config ChronosConfig
}

var _ mapreduce.Strategy = Chronos{}

// Name implements mapreduce.Strategy.
func (s Chronos) Name() string { return s.Kind.String() }

// Start implements mapreduce.Strategy.
func (s Chronos) Start(ctl *mapreduce.Controller) {
	cfg := s.Config.withDefaults()
	runStages(ctl, func(st stage) { s.runStage(ctl, cfg, st) })
}

// runStage plans and launches one stage, and schedules its stage-relative
// control points: straggler handling at tauEst (the reactive strategies) and
// the prune at tauKill.
func (s Chronos) runStage(ctl *mapreduce.Controller, cfg ChronosConfig, st stage) {
	job := ctl.Job()
	r := cfg.chooseStageR(s.Kind, job, st)
	st.recordR(job, r)
	clone, resume := s.Kind == analysis.StrategyClone, s.Kind == analysis.StrategyResume
	copies := 1
	if clone {
		copies = r + 1
	}
	for _, t := range st.tasks {
		for k := 0; k < copies; k++ {
			ctl.Launch(t, 0)
		}
	}
	if !clone {
		ctl.After(cfg.TauEst, func() {
			now := ctl.Now()
			for _, t := range st.tasks {
				if t.Done {
					continue
				}
				if resume {
					resumeStraggler(ctl, cfg, t, now, r)
				} else if isStraggler(t, now, cfg.Estimator, job.Deadline()) {
					for k := 0; k < r; k++ {
						ctl.Launch(t, 0)
					}
				}
			}
		})
	}
	ctl.After(cfg.TauKill, func() {
		for _, t := range st.tasks {
			keepBestKillRest(ctl, t, cfg.Estimator)
		}
	})
}

// resumeStraggler kills a task's attempts and launches r+1 resumed ones in
// their place if its best running attempt is estimated to miss the absolute
// deadline. The handoff preserves work: the new attempts start past the bytes
// the original will have processed by the time their JVMs are up.
func resumeStraggler(ctl *mapreduce.Controller, cfg ChronosConfig, t *mapreduce.Task, now float64, r int) {
	orig, origEst := t.BestRunning(now, cfg.Estimator)
	if orig == nil || origEst <= ctl.Job().Deadline() {
		return
	}
	frac := mapreduce.AnticipatedResumeFrac(orig, now)
	if frac >= 1 {
		return // effectively done; let it finish
	}
	for _, a := range t.Attempts {
		ctl.Kill(a) // a no-op on attempts that already ended
	}
	for k := 0; k <= r; k++ {
		ctl.Launch(t, frac)
	}
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
	best, bestEst := t.BestRunning(now, est)
	return best == nil || bestEst > deadline
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
