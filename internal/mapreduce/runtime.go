package mapreduce

import (
	"fmt"
	"math/bits"

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
// jobs: the caller owns each *Job. Records go back to the runtime's pools at
// the next Submit after they are last needed, so memory tracks the live
// attempts and in-flight jobs, not the length of the stream:
//   - a task's attempts once the task settles — it is Done and none of its
//     attempts is queued or running — so an *Attempt is valid until its task
//     settles and the next Submit runs (Task.Attempts becomes empty);
//   - a job's tasks, and the Tasks slice that listed them, once OnJobSettled
//     has returned (Job.Tasks becomes nil; the Job's own fields stay
//     readable).
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
	// taskLists holds the Tasks slices of reclaimed jobs for Submit to
	// reuse, by capacity: taskLists[k] holds slices of capacity 1<<k.
	taskLists [bits.UintSize][][]*Task
	// settledTasks and reclaimable list the settled tasks and jobs whose
	// records reclaim has yet to take back.
	settledTasks []*Task
	reclaimable  []*Job
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
	job := &Job{Spec: spec, strategy: strat, ChosenR: -1, ChosenReduceR: -1}
	job.ctl = Controller{rt: rt, job: job}
	n := spec.NumTasks + spec.Reduce.NumTasks
	if short := n - len(rt.freeTasks); short > 0 {
		slab := make([]Task, short)
		room := make([]*Attempt, short*taskAttempts)
		for i := range slab {
			slab[i].Attempts = room[i*taskAttempts : i*taskAttempts : (i+1)*taskAttempts]
			rt.freeTasks = append(rt.freeTasks, &slab[i])
		}
	}
	k := bits.Len(uint(n - 1)) // 1<<k is the least power of two >= n
	if m := len(rt.taskLists[k]); m > 0 {
		job.Tasks = rt.taskLists[k][m-1][:n]
		rt.taskLists[k] = rt.taskLists[k][:m-1]
	} else {
		job.Tasks = make([]*Task, n, 1<<k)
	}
	copy(job.Tasks, rt.freeTasks[len(rt.freeTasks)-n:])
	rt.freeTasks = rt.freeTasks[:len(rt.freeTasks)-n]
	for i, t := range job.Tasks {
		stage := StageMap
		if i >= spec.NumTasks {
			stage = StageReduce
		}
		// Field by field, not *t = Task{...}: a composite literal is built
		// on the stack and copied over the record. TestRecycledRecordsStartFresh
		// fails if a field is missed.
		t.Job, t.ID, t.Stage, t.Attempts = job, i, stage, t.Attempts[:0]
		t.Done, t.FinishTime, t.Duration, t.durationIndex = false, 0, 0, 0
		t.live, t.nextAttempt = 0, 0
		t.streamPrefix = pareto.DeriveSeed(rt.cfg.Seed, uint64(spec.ID), uint64(i))
	}
	rt.Eng.Schedule(spec.Arrival, func() { strat.Start(&job.ctl) })
	return job, nil
}

// reclaim returns the attempts of settled tasks and the tasks of settled jobs
// to the pools. It runs at the next Submit rather than at settlement because
// settlement happens inside a handler — a strategy's kill loop, a finish
// event — that may still be walking the task's attempts or the job's tasks.
// Nothing reaches a settled task's attempts afterwards: none is live, so no
// finish event, queued request or held container names one, a Done task takes
// no new attempt, and a strategy skips Done tasks (Duration keeps what
// Hadoop-S and Mantri read of them). Nothing reaches a settled job's tasks:
// Controller stops the job's remaining control points.
func (rt *Runtime) reclaim() {
	for i, t := range rt.settledTasks {
		rt.freeAttempts = append(rt.freeAttempts, t.Attempts...)
		t.Attempts = t.Attempts[:0]
		rt.settledTasks[i] = nil
	}
	rt.settledTasks = rt.settledTasks[:0]
	for i, job := range rt.reclaimable {
		rt.freeTasks = append(rt.freeTasks, job.Tasks...)
		k := bits.TrailingZeros(uint(cap(job.Tasks)))
		rt.taskLists[k] = append(rt.taskLists[k], job.Tasks)
		job.Tasks = nil
		rt.reclaimable[i] = nil
	}
	rt.reclaimable = rt.reclaimable[:0]
}

// launch creates an attempt for the task starting at startFrac of the split
// and requests a container for it.
func (rt *Runtime) launch(t *Task, startFrac float64) *Attempt {
	if startFrac < 0 || startFrac >= 1 {
		panic(fmt.Sprintf("mapreduce: launch with startFrac %v", startFrac))
	}
	if t.Done {
		panic(fmt.Sprintf("mapreduce: job %d launched an attempt of task %d after it finished",
			t.Job.Spec.ID, t.ID))
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
	// Reset field by field, as Submit resets a task.
	a.Task, a.Index, a.State = t, t.nextAttempt, AttemptQueued
	a.RequestTime, a.StartFrac = rt.Eng.Now(), startFrac
	a.LaunchTime, a.JVMDelay, a.Intrinsic, a.EndTime = 0, 0, 0, 0
	a.container, a.finishTimer, a.ticket = nil, sim.Timer{}, 0
	t.nextAttempt++
	t.Attempts = append(t.Attempts, a)
	t.live++
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
	t := a.Task
	job := t.Job
	ctl := &job.ctl
	now := rt.Eng.Now()
	a.State = AttemptFinished
	a.EndTime = now
	rt.releaseAndCharge(a)
	defer rt.maybeSettle(job)

	// A later finish by a lower-Index attempt replaces the record: Duration
	// is the attempt a launch-order scan for the first finished one finds.
	first := !t.Done
	if first || a.Index < t.durationIndex {
		t.Duration, t.durationIndex = now-a.LaunchTime, a.Index
	}
	t.Done = true
	rt.attemptEnded(t)
	if !first {
		return
	}
	t.FinishTime = now
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
	rt.attemptEnded(a.Task)
	rt.maybeSettle(a.Task.Job)
	return true
}

// attemptEnded drops one of the task's and its job's live attempts and, when
// the task is Done and that was its last, queues the task for reclaim: its
// attempts are no longer needed.
func (rt *Runtime) attemptEnded(t *Task) {
	t.live--
	t.Job.liveAttempts--
	if t.Done && t.live == 0 {
		rt.settledTasks = append(rt.settledTasks, t)
	}
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
