package speculate

import (
	"math"
	"sort"

	"chronos/internal/mapreduce"
)

// LATE implements the LATE scheduler (Zaharia et al., OSDI'08) as an
// additional baseline: speculate on the task with the Longest Approximate
// Time to End, but only if its progress rate is below the
// lateSlowTaskThreshold percentile, and keep the number of concurrent
// speculative attempts under a tenth of the job's tasks (at least one). LATE
// is not part of the paper's evaluation tables but is the lineage baseline
// Mantri and Chronos are positioned against.
type LATE struct{}

// lateSlowTaskThreshold is the progress-rate percentile below which a task
// qualifies for speculation, per the LATE paper.
const lateSlowTaskThreshold = 0.25

var _ mapreduce.Strategy = LATE{}

// Name implements mapreduce.Strategy.
func (LATE) Name() string { return "LATE" }

// Start implements mapreduce.Strategy.
func (LATE) Start(ctl *mapreduce.Controller) { monitor(ctl, latePass) }

// latePass runs one LATE monitoring cycle.
func latePass(ctl *mapreduce.Controller) {
	job := ctl.Job()
	now := ctl.Now()
	speculativeCap := max(len(job.Tasks)/10, 1)

	// Collect progress rates of all original attempts that have reported.
	type cand struct {
		task *mapreduce.Task
		rate float64
		est  float64
	}
	var rates []float64
	var cands []cand
	speculating := 0
	for _, t := range job.Tasks {
		if len(t.Attempts) > 1 {
			// Count live speculative copies toward the cap.
			for _, a := range t.Attempts[1:] {
				if a.State == mapreduce.AttemptRunning || a.State == mapreduce.AttemptQueued {
					speculating++
				}
			}
		}
		if t.Done || len(t.Attempts) != 1 {
			continue
		}
		a := t.Attempts[0]
		if !a.Running() {
			continue
		}
		elapsed := now - a.LaunchTime
		if elapsed <= 0 {
			continue
		}
		rate := a.OwnProgress(now) / elapsed
		rates = append(rates, rate)
		est := mapreduce.HadoopEstimator(a, now)
		if math.IsInf(est, 1) {
			est = math.MaxFloat64
		}
		cands = append(cands, cand{task: t, rate: rate, est: est})
	}
	if len(cands) == 0 || speculating >= speculativeCap {
		return
	}

	// Slow-task threshold: rate below the configured percentile.
	sort.Float64s(rates)
	cut := rates[int(float64(len(rates))*lateSlowTaskThreshold)]

	// Speculate on the slow task with the longest approximate time to end.
	var pick *cand
	for i := range cands {
		c := &cands[i]
		if c.rate > cut {
			continue
		}
		if pick == nil || c.est > pick.est {
			pick = c
		}
	}
	if pick != nil {
		ctl.Launch(pick.task, 0)
	}
}
