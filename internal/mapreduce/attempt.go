package mapreduce

import (
	"math"

	"chronos/internal/cluster"
	"chronos/internal/pareto"
	"chronos/internal/sim"
)

// AttemptState is the lifecycle of a task attempt.
type AttemptState int

// Attempt lifecycle states.
const (
	// AttemptQueued: waiting for a container.
	AttemptQueued AttemptState = iota + 1
	// AttemptRunning: holding a container and (after the JVM delay)
	// processing data.
	AttemptRunning
	// AttemptFinished: processed its full byte range.
	AttemptFinished
	// AttemptKilled: killed by a strategy or by task completion.
	AttemptKilled
)

// String implements fmt.Stringer.
func (s AttemptState) String() string {
	switch s {
	case AttemptQueued:
		return "queued"
	case AttemptRunning:
		return "running"
	case AttemptFinished:
		return "finished"
	case AttemptKilled:
		return "killed"
	default:
		return "unknown"
	}
}

// Attempt is a single execution attempt of a task. Its processing model is
// linear: after a JVM startup delay the attempt processes its byte range at
// constant rate, completing the range in Intrinsic * (1-StartFrac) seconds,
// where Intrinsic is the attempt's sampled full-split processing time.
type Attempt struct {
	// Task backlink.
	Task *Task
	// Index is the per-task attempt index (0 = original). It keys the
	// random stream so that strategies are compared on common random
	// numbers.
	Index int
	// State is the lifecycle state.
	State AttemptState
	// RequestTime is when the container was requested.
	RequestTime float64
	// LaunchTime is tlau: the container grant instant.
	LaunchTime float64
	// JVMDelay is the sampled startup delay; the first progress report
	// (tFP) arrives at LaunchTime + JVMDelay.
	JVMDelay float64
	// StartFrac is the fraction of the split already processed when the
	// attempt starts (non-zero only for Speculative-Resume attempts).
	StartFrac float64
	// Intrinsic is the sampled Pareto full-split processing time.
	Intrinsic float64
	// EndTime is when the attempt finished or was killed.
	EndTime float64

	ctl         *Controller
	container   *cluster.Container
	finishTimer sim.Timer
	// ticket cancels the container request while the attempt is queued.
	ticket cluster.Ticket
}

// attemptHooks is an Attempt as the engine and the cluster call it back: the
// target of its finish event and of its container grant. Converting the
// pointer costs nothing, where a closure per callback cost a heap object per
// attempt; the named type keeps the two methods out of Attempt's own method
// set.
type attemptHooks Attempt

// Fire implements sim.Handler: the attempt processed its last byte.
func (h *attemptHooks) Fire() {
	a := (*Attempt)(h)
	a.ctl.rt.finishAttempt(a)
}

// Granted implements cluster.Waiter.
func (h *attemptHooks) Granted(ctr *cluster.Container) {
	a := (*Attempt)(h)
	a.ctl.rt.startAttempt(a, ctr)
}

// JVMReady returns tFP, the instant the attempt starts processing data and
// reports progress for the first time.
func (a *Attempt) JVMReady() float64 { return a.LaunchTime + a.JVMDelay }

// FinishTime returns the attempt's (oracle) completion instant, assuming it
// is not killed: JVMReady + Intrinsic * (1 - StartFrac).
func (a *Attempt) FinishTime() float64 {
	return a.JVMReady() + a.Intrinsic*(1-a.StartFrac)
}

// Progress returns the task-level progress score of the attempt at now: the
// fraction of the split processed, counting the StartFrac inherited from a
// killed original. Zero before the attempt starts processing.
func (a *Attempt) Progress(now float64) float64 {
	switch a.State {
	case AttemptFinished:
		return 1
	case AttemptQueued:
		return a.StartFrac
	case AttemptKilled:
		now = a.EndTime
	}
	ready := a.JVMReady()
	if now <= ready || a.Intrinsic <= 0 {
		// Not processing yet, or killed before ever being granted a
		// container (Intrinsic is unsampled and zero).
		return a.StartFrac
	}
	p := a.StartFrac + (now-ready)/a.Intrinsic
	if p > 1 {
		p = 1
	}
	return p
}

// OwnProgress returns the attempt's progress over its own byte range
// [StartFrac, 1): the quantity a real Hadoop attempt reports.
func (a *Attempt) OwnProgress(now float64) float64 {
	p := a.Progress(now)
	if a.StartFrac >= 1 {
		return 1
	}
	own := (p - a.StartFrac) / (1 - a.StartFrac)
	if own < 0 {
		return 0
	}
	return own
}

// Running reports whether the attempt currently holds a container.
func (a *Attempt) Running() bool { return a.State == AttemptRunning }

// Observation is what the AM knows about an attempt's progress at a given
// time: the progress value and the instant it was reported.
type Observation struct {
	// Progress is the attempt's own-range progress as last reported.
	Progress float64
	// At is the report timestamp (== query time under continuous
	// observation).
	At float64
	// Valid is false before the first useful report.
	Valid bool
}

// Observe returns the attempt's latest progress report at time now. With
// ReportInterval unset the observation is continuous and exact; otherwise
// reports arrive every interval after JVM-ready, optionally perturbed by
// ReportNoise (deterministic per report, so repeated queries agree).
func (a *Attempt) Observe(now float64) Observation {
	var rt *Runtime
	if a.Task != nil && a.Task.Job != nil {
		rt = a.Task.Job.rt
	}
	interval := 0.0
	noise := 0.0
	if rt != nil {
		interval = rt.cfg.ReportInterval
		noise = rt.cfg.ReportNoise
	}
	if interval <= 0 {
		own := a.OwnProgress(now)
		if now <= a.JVMReady() || own <= 0 {
			return Observation{}
		}
		return Observation{Progress: own, At: now, Valid: true}
	}
	tFP := a.JVMReady()
	if now <= tFP {
		return Observation{}
	}
	// Report k covers tFP + k*interval; the first useful (non-zero) report
	// is k = 1.
	k := math.Floor((now - tFP) / interval)
	if k < 1 {
		return Observation{}
	}
	tObs := tFP + k*interval
	if end := a.endOfProcessing(); tObs > end {
		tObs = end // no reports after the attempt stopped
	}
	p := a.OwnProgress(tObs)
	if p <= 0 {
		return Observation{}
	}
	if noise > 0 && p < 1 {
		spec := a.Task.Job.Spec
		stream := pareto.NewStream(rt.cfg.Seed,
			0x0B5, uint64(spec.ID), uint64(a.Task.ID), uint64(a.Index), uint64(k))
		p *= 1 + noise*stream.NormFloat64()
		if p <= 1e-6 {
			p = 1e-6
		}
		if p > 1 {
			p = 1
		}
	}
	return Observation{Progress: p, At: tObs, Valid: true}
}

// endOfProcessing returns the last instant the attempt was producing
// progress.
func (a *Attempt) endOfProcessing() float64 {
	switch a.State {
	case AttemptFinished, AttemptKilled:
		return a.EndTime
	default:
		return math.Inf(1)
	}
}
