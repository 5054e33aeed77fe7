package speculate

import (
	"math"

	"chronos/internal/mapreduce"
)

// HadoopNS is default Hadoop with speculation disabled: one attempt per
// task, no monitoring, run everything to completion.
type HadoopNS struct{}

var _ mapreduce.Strategy = HadoopNS{}

// Name implements mapreduce.Strategy.
func (HadoopNS) Name() string { return "Hadoop-NS" }

// Start implements mapreduce.Strategy.
func (HadoopNS) Start(ctl *mapreduce.Controller) { launchOriginals(ctl) }

// checkInterval is the monitoring period of the reactive baselines, in
// seconds.
const checkInterval = 5

// monitor is the loop Hadoop-S and Mantri share: launch the originals, kill a
// task's leftover attempts the moment it commits, and run pass every
// checkInterval seconds until the job is done. Both baselines predate the
// Chronos JVM-aware estimator, so pass estimates with Hadoop's.
func monitor(ctl *mapreduce.Controller, pass func(*mapreduce.Controller, mapreduce.Estimator)) {
	job := ctl.Job()
	launchOriginals(ctl)
	killLeftoversOnTaskDone(ctl)

	var tick func()
	tick = func() {
		if job.Done {
			return
		}
		pass(ctl, mapreduce.HadoopEstimator)
		ctl.After(checkInterval, tick)
	}
	ctl.After(checkInterval, tick)
}

// HadoopS reproduces default Hadoop speculation: once at least one task of
// the job has finished, the AM periodically compares each running task's
// estimated completion time with the mean completion time of finished tasks
// and launches one extra attempt for the task with the largest (positive)
// difference — at most one speculative attempt per task, using Hadoop's
// JVM-oblivious estimator.
type HadoopS struct{}

var _ mapreduce.Strategy = HadoopS{}

// Name implements mapreduce.Strategy.
func (HadoopS) Name() string { return "Hadoop-S" }

// Start implements mapreduce.Strategy.
func (HadoopS) Start(ctl *mapreduce.Controller) { monitor(ctl, hadoopSPass) }

// hadoopSPass runs one Hadoop-S monitoring cycle.
func hadoopSPass(ctl *mapreduce.Controller, est mapreduce.Estimator) {
	job := ctl.Job()
	now := ctl.Now()

	// Hadoop only speculates after at least one task has finished.
	meanDone, nDone := meanTaskDuration(job)
	if nDone == 0 {
		return
	}

	var worst *mapreduce.Task
	worstDiff := 0.0
	for _, t := range job.Tasks {
		// Only a task whose one attempt so far is running: one speculative
		// attempt per task at a time.
		if t.Done || len(t.Attempts) != 1 || !t.Attempts[0].Running() {
			continue
		}
		a := t.Attempts[0]
		e := est(a, now)
		if math.IsInf(e, 1) {
			continue
		}
		// Compare estimated remaining completion against the average
		// duration of finished tasks (both on the task-duration clock).
		diff := (e - a.LaunchTime) - meanDone
		if diff > worstDiff {
			worstDiff, worst = diff, t
		}
	}
	if worst != nil {
		ctl.Launch(worst, 0)
	}
}

// meanTaskDuration returns the mean winning-attempt duration of the job's
// finished tasks. It reads Task.Duration, not the attempts: a finished task's
// attempt records go back to the runtime once none of them is live.
func meanTaskDuration(job *mapreduce.Job) (mean float64, n int) {
	var sum float64
	for _, t := range job.Tasks {
		if t.Done {
			sum += t.Duration
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// Mantri reproduces the paper's description of Mantri: while containers are
// free and no task is waiting for one, keep launching extra attempts for
// tasks whose estimated remaining time exceeds the average task execution
// time by mantriMargin, up to mantriMaxExtra extra attempts per task;
// periodically keep only the best-progress attempt of each task.
type Mantri struct{}

// Mantri's launch rule, per the paper: the required excess of estimated
// remaining time over the mean task time (seconds), and the cap on extra
// attempts per task.
const (
	mantriMargin   = 30
	mantriMaxExtra = 3
)

var _ mapreduce.Strategy = Mantri{}

// Name implements mapreduce.Strategy.
func (Mantri) Name() string { return "Mantri" }

// Start implements mapreduce.Strategy.
func (Mantri) Start(ctl *mapreduce.Controller) { monitor(ctl, mantriPass) }

// mantriPass runs one Mantri monitoring cycle. Mantri estimates completion
// with Hadoop-style progress reports (monitor's est), launches an extra
// attempt per tick for every outlier task, and kills a duplicate only when
// some sibling is clearly — at least twice — faster. The aggressive
// launch/late kill combination is what runs up Mantri's cost in Figure 3(b).
func mantriPass(ctl *mapreduce.Controller, est mapreduce.Estimator) {
	job := ctl.Job()
	now := ctl.Now()

	// Unlike the Chronos strategies, Mantri never kills the original
	// straggler early and lets duplicates ride until the task commits
	// (killLeftoversOnTaskDone then reaps them). Pruning mid-flight on raw
	// progress score — the literal reading of "leaves one attempt with the
	// best progress running" — keeps long-running stragglers over fresh
	// fast copies in a heavy-tailed substrate and collapses PoCD, which
	// contradicts the measured Mantri profile (high PoCD at high cost), so
	// duplicates are retained. The sustained parallel duplicates are what
	// run up Mantri's cost in Figure 3(b).

	meanDur, nDone := meanTaskDuration(job)
	if nDone == 0 {
		return
	}

	// Launch-phase: only when there is idle capacity and nothing queued.
	// Mantri "keeps launching new attempts" for an outlier until more than
	// mantriMaxExtra extra attempts are active, so a flagged task is
	// burst-filled to the cap — and refilled on later ticks if the prune
	// above discarded copies while the task still looks like an outlier.
	for _, t := range job.Tasks {
		if ctl.FreeSlots() <= 0 || !ctl.QueueEmpty() {
			return
		}
		if t.Done || t.NumActive()-1 >= mantriMaxExtra {
			continue
		}
		best, bestEst := t.BestRunning(now, est)
		if best == nil {
			continue
		}
		remaining := bestEst - now
		if remaining > meanDur+mantriMargin {
			for t.NumActive()-1 < mantriMaxExtra {
				ctl.Launch(t, 0)
			}
		}
	}
}
