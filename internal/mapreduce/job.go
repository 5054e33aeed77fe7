// Package mapreduce implements the MapReduce execution substrate Chronos is
// evaluated on: jobs split into parallel tasks, task attempts with JVM
// startup delays and byte-offset resume, progress scores, completion-time
// estimators (Hadoop's default and the improved Chronos estimator of Eq. 30),
// and an application-master-style runtime that launches attempts on cluster
// containers and drives speculation strategies.
package mapreduce

import (
	"fmt"

	"chronos/internal/pareto"
)

// JVMModel describes the JVM/container startup delay added before an attempt
// begins processing data. The delay is sampled uniformly in [Min, Max]
// (constant when Min == Max). The paper's Eq. 30 exists precisely because
// this delay breaks Hadoop's completion-time estimator.
type JVMModel struct {
	Min float64
	Max float64
}

// Sample draws one startup delay.
func (m JVMModel) Sample(rng interface{ Float64() float64 }) float64 {
	if m.Max <= m.Min {
		return m.Min
	}
	return m.Min + rng.Float64()*(m.Max-m.Min)
}

// StageKind distinguishes map from reduce tasks.
type StageKind int

// The two MapReduce stages.
const (
	// StageMap tasks run from job start.
	StageMap StageKind = iota
	// StageReduce tasks become runnable when every map task has finished.
	StageReduce
)

// String implements fmt.Stringer.
func (k StageKind) String() string {
	if k == StageReduce {
		return "reduce"
	}
	return "map"
}

// ReduceSpec optionally adds a reduce stage to a job. The paper's analysis
// "applies to MapReduce jobs, whose PoCD for map and reduce stages can be
// optimized separately" (Section I); strategies re-plan r for the reduce
// stage when it becomes runnable, against the remaining deadline budget.
type ReduceSpec struct {
	// NumTasks is the number of reduce tasks (0 disables the stage).
	NumTasks int
	// Dist is the intrinsic reduce-task processing-time distribution.
	Dist pareto.Dist
}

// Enabled reports whether the job has a reduce stage.
func (r ReduceSpec) Enabled() bool { return r.NumTasks > 0 }

// JobSpec is the immutable description of a submitted job.
type JobSpec struct {
	// ID uniquely identifies the job; it keys the random streams.
	ID int
	// Name is a human label (benchmark name, trace job id).
	Name string
	// NumTasks is the number of parallel map tasks.
	NumTasks int
	// Deadline is the job deadline in seconds after arrival.
	Deadline float64
	// Dist is the intrinsic full-split processing-time distribution of one
	// map attempt.
	Dist pareto.Dist
	// JVM is the attempt startup-delay model.
	JVM JVMModel
	// UnitPrice is the per-unit-machine-time VM price C for this job.
	UnitPrice float64
	// Arrival is the submission time.
	Arrival float64
	// Reduce optionally adds a reduce stage gated on map completion.
	Reduce ReduceSpec
	// MapDeadlineFrac is the fraction of the deadline budgeted to the map
	// stage when planning (only meaningful with a reduce stage; default
	// 0.5).
	MapDeadlineFrac float64
}

// Validate reports spec errors.
func (s JobSpec) Validate() error {
	if s.NumTasks < 1 {
		return fmt.Errorf("mapreduce: job %d has %d tasks", s.ID, s.NumTasks)
	}
	if err := s.Dist.Validate(); err != nil {
		return fmt.Errorf("mapreduce: job %d: %w", s.ID, err)
	}
	if s.Deadline <= 0 {
		return fmt.Errorf("mapreduce: job %d deadline %v <= 0", s.ID, s.Deadline)
	}
	if s.JVM.Min < 0 || s.JVM.Max < s.JVM.Min {
		return fmt.Errorf("mapreduce: job %d invalid JVM delay [%v, %v]", s.ID, s.JVM.Min, s.JVM.Max)
	}
	if s.Arrival < 0 {
		return fmt.Errorf("mapreduce: job %d negative arrival %v", s.ID, s.Arrival)
	}
	if s.Reduce.Enabled() {
		if err := s.Reduce.Dist.Validate(); err != nil {
			return fmt.Errorf("mapreduce: job %d reduce stage: %w", s.ID, err)
		}
		if s.MapDeadlineFrac < 0 || s.MapDeadlineFrac >= 1 {
			return fmt.Errorf("mapreduce: job %d map deadline fraction %v outside [0, 1)", s.ID, s.MapDeadlineFrac)
		}
	}
	return nil
}

// MapBudget returns the planning deadline for the map stage: the full
// deadline for map-only jobs, MapDeadlineFrac (default 0.5) of it when a
// reduce stage follows.
func (s JobSpec) MapBudget() float64 {
	if !s.Reduce.Enabled() {
		return s.Deadline
	}
	frac := s.MapDeadlineFrac
	if frac == 0 {
		frac = 0.5
	}
	return frac * s.Deadline
}

// Job is the runtime state of one submitted job.
type Job struct {
	// Spec is the submitted description.
	Spec JobSpec
	// Tasks are the job's parallel tasks: map tasks first, then reduce
	// tasks (if any).
	Tasks []*Task
	// Done flips when the last task completes.
	Done bool
	// FinishTime is the completion instant (valid when Done).
	FinishTime float64
	// MapDone flips when every map task has completed (always before Done).
	MapDone bool
	// MapFinishTime is the map-stage completion instant (valid when
	// MapDone).
	MapFinishTime float64
	// MachineTime accumulates container occupancy across all attempts of
	// the job, the paper's execution-cost measure.
	MachineTime float64
	// ChosenR records the r selected by the strategy's optimizer for the
	// map stage, for the Figure 5 histograms. -1 when the strategy does
	// not optimize r.
	ChosenR int
	// ChosenReduceR records the reduce-stage r (-1 if unset).
	ChosenReduceR int

	doneTasks    int
	doneMapTasks int
	// liveAttempts counts attempts that are queued or running; the job
	// settles (accounting final) when it is Done and this reaches zero.
	liveAttempts int
	settled      bool
	strategy     Strategy
	rt           *Runtime
}

// StrategyName returns the driving strategy's name ("" before Submit).
func (j *Job) StrategyName() string {
	if j.strategy == nil {
		return ""
	}
	return j.strategy.Name()
}

// Deadline returns the absolute deadline instant.
func (j *Job) Deadline() float64 { return j.Spec.Arrival + j.Spec.Deadline }

// MetDeadline reports whether the job finished before its deadline.
func (j *Job) MetDeadline() bool {
	return j.Done && j.FinishTime <= j.Deadline()+1e-9
}

// Cost returns the job's execution cost: the paper's fixed UnitPrice times
// machine time.
func (j *Job) Cost() float64 { return j.Spec.UnitPrice * j.MachineTime }

// MapTasks returns the map-stage tasks.
func (j *Job) MapTasks() []*Task { return j.Tasks[:j.Spec.NumTasks] }

// ReduceTasks returns the reduce-stage tasks (empty for map-only jobs).
func (j *Job) ReduceTasks() []*Task { return j.Tasks[j.Spec.NumTasks:] }

// Task is one parallel unit of work of a job.
type Task struct {
	// Job backlink.
	Job *Job
	// ID is the task index within the job (map tasks first).
	ID int
	// Stage is the task's MapReduce stage.
	Stage StageKind
	// Attempts lists every attempt ever launched for the task, in launch
	// order (index 0 is the original).
	Attempts []*Attempt
	// Done flips when the first attempt finishes.
	Done bool
	// FinishTime is the completion instant (valid when Done).
	FinishTime float64

	nextAttempt int
	// streamPrefix is DeriveSeed(seed, job ID, task ID): each attempt's
	// stream, MakeStream(seed, job ID, task ID, attempt index), continues it
	// with the index.
	streamPrefix uint64
}

// NumActive counts the attempts that are queued or running.
func (t *Task) NumActive() int {
	n := 0
	for _, a := range t.Attempts {
		if a.State == AttemptQueued || a.State == AttemptRunning {
			n++
		}
	}
	return n
}

// BestRunning returns the running attempt with the smallest estimated
// completion time under the estimator, and that estimate, or nil if none is
// running. This is the "attempt with the best progress" kept alive at
// tauKill. It calls est once per running attempt; a caller that needs the
// winner's estimate uses the one returned rather than asking again.
func (t *Task) BestRunning(now float64, est Estimator) (*Attempt, float64) {
	var best *Attempt
	bestEst := 0.0
	for _, a := range t.Attempts {
		if a.State != AttemptRunning {
			continue
		}
		e := est(a, now)
		if best == nil || e < bestEst {
			best, bestEst = a, e
		}
	}
	return best, bestEst
}
