package mapreduce

import (
	"fmt"

	"chronos/internal/cluster"
	"chronos/internal/pareto"
	"chronos/internal/sim"
)

// Config tunes runtime behaviour.
type Config struct {
	// Seed drives all workload randomness. Attempt samples are keyed by
	// (seed, job, task, attempt index) so different strategies observe
	// common random numbers.
	Seed uint64
	// ReportInterval, when > 0, makes estimators observe progress only
	// through periodic reports (every ReportInterval seconds after the
	// first report at JVM-ready), as real Hadoop AMs do. Zero means
	// continuous exact observation.
	ReportInterval float64
	// ReportNoise perturbs each reported progress value multiplicatively
	// by a relative Gaussian error (e.g. 0.1 = 10% stddev). Requires
	// ReportInterval > 0. This reproduces the estimation inaccuracy the
	// paper attributes to limited observation at small tauEst.
	ReportNoise float64
}

// attemptChunk is how many attempts the runtime allocates at a time, and
// taskAttempts how many a fresh task has room for before its Attempts slice
// has to grow: an original and the three extra copies the strategies rarely
// exceed.
const (
	attemptChunk = 128
	taskAttempts = 4
)

// Runtime is the application-master-style execution core: it launches
// attempts on cluster containers, tracks completions and machine time, and
// calls into the per-job speculation strategy. It does not retain submitted
// jobs: the caller owns each *Job, and once OnJobSettled has returned the
// runtime takes the job's tasks and attempts back for later jobs at the next
// Submit (Job.Tasks becomes nil; the Job's own fields stay readable), so
// memory tracks the in-flight job count, not the length of the stream.
type Runtime struct {
	// Eng is the discrete-event engine driving the simulation.
	Eng *sim.Engine
	// Cluster supplies containers.
	Cluster *cluster.Cluster

	cfg Config
	// freeTasks and freeAttempts are the runtime's pools. They are filled a
	// slab at a time and refilled by reclaim with the objects of settled
	// jobs; a recycled task keeps its Attempts capacity.
	freeTasks    []*Task
	freeAttempts []*Attempt
	// reclaimable lists the settled jobs whose objects reclaim has yet to
	// take back.
	reclaimable []*Job
	// OnJobSettled, if set, is invoked once per job when its accounting
	// closes: the job is Done and no attempt still holds (or waits for) a
	// container, so MachineTime and Cost are final. Redundant attempts may
	// outlive job completion under the paper's accounting (they run until a
	// strategy kills them or they finish), which is why settlement — not
	// completion — is the instant a streaming consumer may read the job's
	// cost and release its state.
	OnJobSettled func(*Job)
}

// NewRuntime builds a runtime on the engine and cluster.
func NewRuntime(eng *sim.Engine, cl *cluster.Cluster, cfg Config) *Runtime {
	return &Runtime{Eng: eng, Cluster: cl, cfg: cfg}
}

// Submit registers a job and schedules its strategy to start at the job's
// arrival time.
func (rt *Runtime) Submit(spec JobSpec, strat Strategy) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if strat == nil {
		return nil, fmt.Errorf("mapreduce: job %d submitted without a strategy", spec.ID)
	}
	rt.reclaim()
	job := &Job{Spec: spec, strategy: strat, rt: rt, ChosenR: -1, ChosenReduceR: -1}
	n := spec.NumTasks + spec.Reduce.NumTasks
	if short := n - len(rt.freeTasks); short > 0 {
		slab := make([]Task, short)
		room := make([]*Attempt, short*taskAttempts)
		for i := range slab {
			slab[i].Attempts = room[i*taskAttempts : i*taskAttempts : (i+1)*taskAttempts]
			rt.freeTasks = append(rt.freeTasks, &slab[i])
		}
	}
	job.Tasks = make([]*Task, n)
	copy(job.Tasks, rt.freeTasks[len(rt.freeTasks)-n:])
	rt.freeTasks = rt.freeTasks[:len(rt.freeTasks)-n]
	for i, t := range job.Tasks {
		stage := StageMap
		if i >= spec.NumTasks {
			stage = StageReduce
		}
		*t = Task{Job: job, ID: i, Stage: stage, Attempts: t.Attempts[:0],
			streamPrefix: pareto.DeriveSeed(rt.cfg.Seed, uint64(spec.ID), uint64(i))}
	}
	ctl := &Controller{rt: rt, job: job}
	rt.Eng.Schedule(spec.Arrival, func() { strat.Start(ctl) })
	return job, nil
}

// reclaim returns the tasks and attempts of settled jobs to the pools. It
// runs at the next Submit rather than at settlement because settlement
// happens inside a handler — a strategy's kill loop, a finish event — that
// may still be walking the job's tasks. Nothing reaches them afterwards: a
// settled job has no live attempt, so no finish event, queued request or
// held container names one, and Controller stops the job's remaining control
// points.
func (rt *Runtime) reclaim() {
	for i, job := range rt.reclaimable {
		for _, t := range job.Tasks {
			rt.freeAttempts = append(rt.freeAttempts, t.Attempts...)
		}
		rt.freeTasks = append(rt.freeTasks, job.Tasks...)
		job.Tasks = nil
		rt.reclaimable[i] = nil
	}
	rt.reclaimable = rt.reclaimable[:0]
}

// launch creates an attempt for the task starting at startFrac of the split
// and requests a container for it.
func (rt *Runtime) launch(ctl *Controller, t *Task, startFrac float64) *Attempt {
	if startFrac < 0 || startFrac >= 1 {
		panic(fmt.Sprintf("mapreduce: launch with startFrac %v", startFrac))
	}
	if t.Stage == StageReduce && !t.Job.MapDone {
		panic(fmt.Sprintf("mapreduce: job %d launched reduce task %d before map completion",
			t.Job.Spec.ID, t.ID))
	}
	if len(rt.freeAttempts) == 0 {
		slab := make([]Attempt, attemptChunk)
		for i := range slab {
			rt.freeAttempts = append(rt.freeAttempts, &slab[i])
		}
	}
	a := rt.freeAttempts[len(rt.freeAttempts)-1]
	rt.freeAttempts = rt.freeAttempts[:len(rt.freeAttempts)-1]
	*a = Attempt{
		Task:        t,
		Index:       t.nextAttempt,
		State:       AttemptQueued,
		RequestTime: rt.Eng.Now(),
		StartFrac:   startFrac,
		ctl:         ctl,
	}
	t.nextAttempt++
	t.Attempts = append(t.Attempts, a)
	t.Job.liveAttempts++

	// Granted at once, the attempt is already running when RequestFor
	// returns (with no ticket); otherwise it waits, and kill cancels the
	// request.
	a.ticket = rt.Cluster.RequestFor((*attemptHooks)(a))
	return a
}

// startAttempt binds a granted container to the attempt, samples its
// execution characteristics, and schedules its completion.
func (rt *Runtime) startAttempt(a *Attempt, ctr *cluster.Container) {
	spec := &a.Task.Job.Spec
	stream := pareto.ExtendStream(a.Task.streamPrefix, uint64(a.Index))

	dist := spec.Dist
	if a.Task.Stage == StageReduce {
		dist = spec.Reduce.Dist
	}
	a.State = AttemptRunning
	a.LaunchTime = rt.Eng.Now()
	a.JVMDelay = spec.JVM.Sample(&stream)
	a.Intrinsic = dist.FromUniform(stream.Float64())
	a.container = ctr
	a.finishTimer = rt.Eng.ScheduleHandler(a.FinishTime(), (*attemptHooks)(a))
}

// finishAttempt completes an attempt and, if it is the task's first
// completion, the task (and possibly the job).
func (rt *Runtime) finishAttempt(a *Attempt) {
	ctl := a.ctl
	now := rt.Eng.Now()
	a.State = AttemptFinished
	a.EndTime = now
	rt.releaseAndCharge(a)
	a.Task.Job.liveAttempts--
	defer rt.maybeSettle(a.Task.Job)

	t := a.Task
	if t.Done {
		return
	}
	t.Done = true
	t.FinishTime = now
	job := t.Job
	job.doneTasks++
	if t.Stage == StageMap {
		job.doneMapTasks++
	}

	if ctl.taskDone != nil {
		ctl.taskDone(t)
	}
	if !job.MapDone && job.doneMapTasks == job.Spec.NumTasks {
		job.MapDone = true
		job.MapFinishTime = now
		if ctl.mapStageDone != nil {
			ctl.mapStageDone()
		}
	}
	if job.doneTasks == len(job.Tasks) {
		job.Done = true
		job.FinishTime = now
		if ctl.jobDone != nil {
			ctl.jobDone()
		}
	}
}

// kill terminates a queued or running attempt; finished or killed attempts
// are left untouched. Returns whether the attempt was live.
func (rt *Runtime) kill(a *Attempt) bool {
	switch a.State {
	case AttemptQueued:
		a.State = AttemptKilled
		a.EndTime = rt.Eng.Now()
		rt.Cluster.Cancel(a.ticket)
	case AttemptRunning:
		a.State = AttemptKilled
		a.EndTime = rt.Eng.Now()
		a.finishTimer.Cancel()
		rt.releaseAndCharge(a)
	default:
		return false
	}
	a.Task.Job.liveAttempts--
	rt.maybeSettle(a.Task.Job)
	return true
}

// maybeSettle fires OnJobSettled exactly once, when the job is complete and
// its last live attempt has released (or abandoned) its container.
func (rt *Runtime) maybeSettle(job *Job) {
	if !job.Done || job.liveAttempts > 0 || job.settled {
		return
	}
	job.settled = true
	if rt.OnJobSettled != nil {
		rt.OnJobSettled(job)
	}
	rt.reclaimable = append(rt.reclaimable, job)
}

// releaseAndCharge returns the attempt's container and accrues its machine
// time to the job.
func (rt *Runtime) releaseAndCharge(a *Attempt) {
	if a.container == nil {
		return
	}
	a.Task.Job.MachineTime += rt.Eng.Now() - a.LaunchTime
	rt.Cluster.Release(a.container)
	a.container = nil
}
