package speculate

import (
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
//     tauEst (estimated completion beyond the stage deadline) gets r extra
//     from-scratch attempts.
//   - Speculative-Resume: one attempt per task; a straggler detected at
//     tauEst is killed and replaced by r+1 attempts that continue from the
//     anticipated byte offset (Eq. 31), skipping already-processed data.
//
// A stage is planned for one absolute deadline and its stragglers are judged
// against that same deadline (see runStages). The map stage runs from job
// arrival; if the job has a reduce stage, it is planned separately when the
// last map task commits (the paper: "PoCD for map and reduce stages can be
// optimized separately"), for the time left until the job's deadline.
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
	r := cfg.chooseStageR(s.Kind, job, st, ctl.Now())
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
					resumeStraggler(ctl, cfg, t, now, st.deadline, r)
				} else if isStraggler(t, now, cfg.Estimator, st.deadline) {
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
// their place if its best running attempt is estimated to miss the stage's
// absolute deadline. The handoff preserves work: the new attempts start past
// the bytes the original will have processed by the time their JVMs are up.
func resumeStraggler(ctl *mapreduce.Controller, cfg ChronosConfig, t *mapreduce.Task, now, deadline float64, r int) {
	orig, origEst := t.BestRunning(now, cfg.Estimator)
	if orig == nil || origEst <= deadline {
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

// stage is one planning unit of a job: its tasks and the absolute deadline
// they are planned for and judged against.
type stage struct {
	kind     mapreduce.StageKind
	tasks    []*mapreduce.Task
	deadline float64
}

// recordR stores the chosen r on the job for the Figure 5 histograms.
func (st stage) recordR(job *mapreduce.Job, r int) {
	if st.kind == mapreduce.StageReduce {
		job.ChosenReduceR = r
	} else {
		job.ChosenR = r
	}
}

// mapDeadlineFrac is the share of a two-stage job's deadline D its map stage
// is given: the map stage is due at arrival + D/2, the reduce stage at
// arrival + D.
const mapDeadlineFrac = 0.5

// runStages is the one map→reduce sequencing of every strategy: it invokes
// run for the map stage now and, if the job has a reduce stage, again when
// the map stage commits. The map stage is due at the job's deadline, or at
// mapDeadlineFrac of it when a reduce stage follows; the reduce stage is due
// at the job's deadline.
func runStages(ctl *mapreduce.Controller, run func(stage)) {
	job := ctl.Job()
	if !job.Spec.Reduce.Enabled() {
		run(stage{kind: mapreduce.StageMap, tasks: job.MapTasks(), deadline: job.Deadline()})
		return
	}
	run(stage{
		kind:     mapreduce.StageMap,
		tasks:    job.MapTasks(),
		deadline: job.Spec.Arrival + mapDeadlineFrac*job.Spec.Deadline,
	})
	ctl.OnMapStageDone(func() {
		run(stage{kind: mapreduce.StageReduce, tasks: job.ReduceTasks(), deadline: job.Deadline()})
	})
}

// isStraggler reports whether the task's best running attempt is estimated
// to miss the absolute deadline. Tasks with no running attempt (still queued
// under cluster contention) are stragglers by definition.
func isStraggler(t *mapreduce.Task, now float64, est mapreduce.Estimator, deadline float64) bool {
	best, bestEst := t.BestRunning(now, est)
	return best == nil || bestEst > deadline
}

// stageParams builds the analytic inputs for one stage of a job that starts
// at now: the stage is planned for the time left until its deadline.
func stageParams(job *mapreduce.Job, st stage, now float64, cfg ChronosConfig) analysis.Params {
	dist := job.Spec.Dist
	if st.kind == mapreduce.StageReduce {
		dist = job.Spec.Reduce.Dist
	}
	return analysis.Params{
		N:        len(st.tasks),
		Deadline: st.deadline - now,
		Task:     dist,
		TauEst:   cfg.TauEst,
		TauKill:  cfg.TauKill,
	}
}
