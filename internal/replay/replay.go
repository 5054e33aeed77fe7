// Package replay is the incremental trace-replay core: it executes a stream
// of MapReduce jobs on the discrete-event cluster and emits typed per-job
// events (job_planned, job_completed, periodic window_summary aggregates)
// through an observer interface instead of accumulating one batch report.
// The root chronos.Simulate call, the CLIs, and the chronosd /v1/replay
// NDJSON endpoint are all thin consumers of this engine.
//
// The engine submits jobs lazily at their arrival instants and releases each
// job when its accounting settles, so memory stays proportional to the
// number of in-flight jobs rather than the trace length — long-horizon
// online studies do not need a job-count ceiling.
package replay

import (
	"context"
	"fmt"
	"math"
	"sort"

	"chronos/internal/mapreduce"
)

// maxWindowOrdinal bounds window ordinals to the range where float64 still
// resolves consecutive integers; past it, window arithmetic is meaningless.
const maxWindowOrdinal = 1 << 52

// pollEvery is the number of engine steps between context-cancellation
// checks.
const pollEvery = 64

// Job pairs one stream entry's immutable spec with its driving strategy.
type Job struct {
	Spec     mapreduce.JobSpec
	Strategy mapreduce.Strategy
}

// Config tunes one replay run.
type Config struct {
	// WindowSeconds is the sim-time width of window_summary aggregates;
	// zero or negative disables them.
	WindowSeconds float64
	// MaxOpenTasks aborts the replay when the tasks of in-flight
	// (submitted, unsettled) jobs exceed it; zero means unlimited. The
	// engine's memory is proportional to in-flight tasks, so a serving
	// layer sets this to keep one hostile trace (every job arriving at
	// once) from materializing the whole stream in memory.
	MaxOpenTasks int
}

// Run replays jobs on the runtime's engine and cluster, emitting events to
// obs (which may be nil for aggregate-only runs). It returns the final
// aggregates, or the first error from the observer, the context, or a
// stalled stream. Run owns the runtime's OnJobSettled hook.
func Run(ctx context.Context, rt *mapreduce.Runtime, jobs []Job, cfg Config, obs Observer) (Summary, error) {
	if len(jobs) == 0 {
		return Summary{}, fmt.Errorf("replay: no jobs to replay")
	}
	for i, j := range jobs {
		if err := j.Spec.Validate(); err != nil {
			return Summary{}, err
		}
		if j.Strategy == nil {
			return Summary{}, fmt.Errorf("replay: job %d has no strategy", i)
		}
	}

	r := &run{
		rt:      rt,
		obs:     obs,
		rHist:   make(map[int]int),
		jobMT:   make([]float64, len(jobs)),
		jobCost: make([]float64, len(jobs)),
		byID:    make(map[int]int, len(jobs)),
	}
	for i, j := range jobs {
		if _, dup := r.byID[j.Spec.ID]; dup {
			return Summary{}, fmt.Errorf("replay: duplicate job ID %d", j.Spec.ID)
		}
		r.byID[j.Spec.ID] = i
	}

	// Lazy submission: one tiny timer per job materializes the job's task
	// and attempt state only when the stream reaches its arrival. Stable
	// arrival order keeps same-instant submissions in slice order, which
	// preserves the cluster-request ordering of the one-shot simulator.
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	stableSortByArrival(order, jobs)
	eng := rt.Eng
	for _, idx := range order {
		j := jobs[idx]
		eng.Schedule(j.Spec.Arrival, func() {
			tasks := j.Spec.NumTasks + j.Spec.Reduce.NumTasks
			if cfg.MaxOpenTasks > 0 && r.openTasks+tasks > cfg.MaxOpenTasks && r.err == nil {
				r.err = fmt.Errorf(
					"replay: %d tasks in flight at t=%g would exceed the %d-task limit; spread arrivals or shrink jobs",
					r.openTasks+tasks, eng.Now(), cfg.MaxOpenTasks)
				return
			}
			job, err := rt.Submit(j.Spec, j.Strategy)
			if err != nil {
				// Specs were validated up front; a submit failure here is a
				// programming error worth surfacing loudly.
				panic(fmt.Sprintf("replay: submit job %d: %v", j.Spec.ID, err))
			}
			r.submitted++
			r.openTasks += tasks
			// The strategy's Start event was scheduled by Submit at this
			// same instant; this follow-up fires right after it, when the
			// plan (ChosenR) is recorded.
			eng.Schedule(eng.Now(), func() { r.emitPlanned(job, j.Strategy) })
		})
	}
	rt.OnJobSettled = func(job *mapreduce.Job) { r.settle(job) }

	// Drive the engine event by event so windows, cancellation, and
	// observer aborts interleave deterministically with the simulation.
	// Window boundaries derive from an integer ordinal (width * k), not a
	// float accumulator, so indices never collide under rounding.
	windowW := cfg.WindowSeconds
	windowK := 1
	steps := 0
	for r.settled < len(jobs) && r.err == nil {
		if steps%pollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return r.summary(), err
			}
		}
		steps++
		// Only window boundaries need the next event's time before it runs;
		// without them Step alone finds out whether there is an event.
		next := 0.0
		if windowW > 0 {
			var ok bool
			if next, ok = eng.NextAt(); !ok {
				break
			}
		}
		if windowW > 0 && windowW*float64(windowK) < next {
			// Events at exactly a boundary belong to the window that the
			// boundary closes, so summaries wait until the queue has moved
			// strictly past it. Only the first boundary in an event gap can
			// be non-quiet; the rest are skipped arithmetically, so a tiny
			// width cannot turn one gap into an unbounded ordinal walk.
			r.emitWindow(windowK, windowW)
			kf := math.Ceil(next / windowW)
			if kf >= maxWindowOrdinal {
				// Ordinals beyond float precision: no meaningful windows
				// remain, stop emitting them.
				windowW = 0
			} else {
				if k := int(kf); k > windowK {
					windowK = k
				} else {
					windowK++
				}
				for windowW > 0 && windowW*float64(windowK) < next {
					windowK++ // float-rounding guard; at most a step or two
				}
			}
		}
		if !eng.Step() {
			break
		}
	}
	if r.err != nil {
		return r.summary(), r.err
	}
	if err := ctx.Err(); err != nil {
		return r.summary(), err
	}
	if r.settled < len(jobs) {
		return r.summary(), fmt.Errorf(
			"replay: stream stalled with %d of %d jobs settled (cluster too small for the open jobs?)",
			r.settled, len(jobs))
	}
	// The final aggregates re-sum the per-job scalars in stream order, so
	// the fold is bit-identical to the one-shot simulator's post-run pass
	// regardless of the order jobs settled in.
	sum := r.summary()
	sum.MeanMachineTime, sum.MeanCost = 0, 0
	var mt, cost float64
	for i := range jobs {
		mt += r.jobMT[i]
		cost += r.jobCost[i]
	}
	if n := float64(r.settled); n > 0 {
		sum.MeanMachineTime = mt / n
		sum.MeanCost = cost / n
	}
	sum.RHistogram = r.rHist
	ev := &Event{Kind: KindReplaySummary, Time: eng.Now(), Summary: &sum}
	r.emit(ev)
	return sum, r.err
}

// run is the mutable state of one replay.
type run struct {
	rt  *mapreduce.Runtime
	obs Observer
	err error
	seq uint64

	submitted   int
	settled     int
	met         int
	openTasks   int
	machineTime float64
	cost        float64
	rHist       map[int]int
	// jobMT and jobCost record per-job scalars by stream index (byID maps
	// spec ID to index) so the final report can sum them in stream order —
	// float addition is order-sensitive and the one-shot report contract is
	// bit-identical results for a fixed seed.
	jobMT   []float64
	jobCost []float64
	byID    map[int]int

	// windowSettled and windowSubs snapshot the counters at the last
	// window boundary, for per-window deltas.
	windowSettled int
	windowSubs    int
}

// emit hands one event to the observer, assigning its sequence number. The
// first observer error latches and aborts the run loop.
func (r *run) emit(ev *Event) {
	ev.Seq = r.seq
	r.seq++
	if r.obs == nil || r.err != nil {
		return
	}
	if err := r.obs.OnEvent(ev); err != nil {
		r.err = err
	}
}

// emitPlanned reports a submitted job's chosen plan.
func (r *run) emitPlanned(job *mapreduce.Job, strat mapreduce.Strategy) {
	r.emit(&Event{
		Kind: KindJobPlanned,
		Time: r.rt.Eng.Now(),
		Job:  jobEvent(job, strat.Name()),
	})
}

// settle folds one settled job into the aggregates and reports it.
func (r *run) settle(job *mapreduce.Job) {
	r.settled++
	r.openTasks -= job.Spec.NumTasks + job.Spec.Reduce.NumTasks
	if job.MetDeadline() {
		r.met++
	}
	r.machineTime += job.MachineTime
	r.cost += job.Cost()
	if i, ok := r.byID[job.Spec.ID]; ok {
		r.jobMT[i] = job.MachineTime
		r.jobCost[i] = job.Cost()
	}
	if job.ChosenR >= 0 {
		r.rHist[job.ChosenR]++
	}
	pocd := float64(r.met) / float64(r.settled)
	r.emit(&Event{
		Kind: KindJobCompleted,
		Time: r.rt.Eng.Now(),
		Job:  jobEvent(job, job.StrategyName()),
		Outcome: &Outcome{
			Finish:      job.FinishTime,
			MetDeadline: job.MetDeadline(),
			Lateness:    job.FinishTime - job.Deadline(),
			MachineTime: job.MachineTime,
			Cost:        job.Cost(),
		},
		PoCD: &pocd,
	})
}

// emitWindow closes window ordinal k (spanning ((k-1)*width, k*width]),
// skipping quiet ones.
func (r *run) emitWindow(k int, width float64) {
	settled, subs := r.settled-r.windowSettled, r.submitted-r.windowSubs
	r.windowSettled = r.settled
	r.windowSubs = r.submitted
	if settled == 0 && subs == 0 {
		return
	}
	r.emit(&Event{
		Kind: KindWindowSummary,
		Time: width * float64(k),
		Window: &Window{
			Index:     k - 1,
			Start:     width * float64(k-1),
			End:       width * float64(k),
			Completed: settled,
			Running:   r.summary(),
		},
	})
}

// summary snapshots the cumulative aggregates.
func (r *run) summary() Summary {
	s := Summary{
		Jobs:      r.settled,
		Submitted: r.submitted,
		Met:       r.met,
	}
	if r.settled > 0 {
		n := float64(r.settled)
		s.PoCD = float64(r.met) / n
		s.MeanMachineTime = r.machineTime / n
		s.MeanCost = r.cost / n
	}
	return s
}

// jobEvent builds the identifying payload for one job.
func jobEvent(job *mapreduce.Job, strategy string) *JobEvent {
	je := &JobEvent{
		ID:          job.Spec.ID,
		Strategy:    strategy,
		Tasks:       job.Spec.NumTasks,
		ReduceTasks: job.Spec.Reduce.NumTasks,
		Arrival:     job.Spec.Arrival,
		Deadline:    job.Spec.Deadline,
	}
	if r := job.ChosenR; r >= 0 {
		je.R = &r
	}
	if r := job.ChosenReduceR; r >= 0 {
		je.ReduceR = &r
	}
	return je
}

// stableSortByArrival orders job indices by arrival, preserving slice order
// for equal instants so same-time submissions keep their stream order.
func stableSortByArrival(order []int, jobs []Job) {
	sort.SliceStable(order, func(a, b int) bool {
		return jobs[order[a]].Spec.Arrival < jobs[order[b]].Spec.Arrival
	})
}
