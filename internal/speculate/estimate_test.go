package speculate

import (
	"testing"

	"chronos/internal/cluster"
	"chronos/internal/mapreduce"
	"chronos/internal/pareto"
	"chronos/internal/sim"
)

// TestOneEstimatePerAttemptPerControlPoint counts estimator calls at every
// control point that picks a task's best running attempt: each must estimate
// each of the task's k running attempts once, and reuse the winner's estimate
// instead of asking for it again.
func TestOneEstimatePerAttemptPerControlPoint(t *testing.T) {
	// Mantri only considers a task with fewer than mantriMaxExtra extra
	// attempts, so k stays at that cap.
	const k = mantriMaxExtra
	sites := []struct {
		name string
		run  func(ctl *mapreduce.Controller, task *mapreduce.Task, est mapreduce.Estimator)
	}{
		{"keepBestKillRest", func(ctl *mapreduce.Controller, task *mapreduce.Task, est mapreduce.Estimator) {
			keepBestKillRest(ctl, task, est)
		}},
		{"isStraggler", func(ctl *mapreduce.Controller, task *mapreduce.Task, est mapreduce.Estimator) {
			isStraggler(task, ctl.Now(), est, ctl.Job().Deadline())
		}},
		{"resumeStraggler", func(ctl *mapreduce.Controller, task *mapreduce.Task, est mapreduce.Estimator) {
			resumeStraggler(ctl, ChronosConfig{Estimator: est}, task, ctl.Now(), 1)
		}},
		{"mantriPass", func(ctl *mapreduce.Controller, _ *mapreduce.Task, est mapreduce.Estimator) {
			mantriPass(ctl, est)
		}},
	}
	for _, site := range sites {
		t.Run(site.name, func(t *testing.T) {
			eng := sim.NewEngine()
			cl, err := cluster.New(eng, cluster.Config{Nodes: 4, SlotsPerNode: 8})
			if err != nil {
				t.Fatal(err)
			}
			rt := mapreduce.NewRuntime(eng, cl, mapreduce.Config{Seed: 1})
			// Near-constant 10 s tasks: task 0 runs alone over [0, 10]; task
			// 1's k copies start at 5 and are mid-flight at 12, when task 0
			// has finished (which Mantri needs before it speculates).
			spec := mapreduce.JobSpec{NumTasks: 2, Deadline: 100, Dist: pareto.MustNew(10, 1e6), UnitPrice: 1}
			var ctl *mapreduce.Controller
			job, err := rt.Submit(spec, hookedStrategy{start: func(c *mapreduce.Controller) {
				ctl = c
				c.Launch(c.Job().Tasks[0], 0)
				c.After(5, func() {
					for i := 0; i < k; i++ {
						c.Launch(c.Job().Tasks[1], 0)
					}
				})
			}})
			if err != nil {
				t.Fatal(err)
			}
			eng.RunUntil(12)
			task := job.Tasks[1]
			if !job.Tasks[0].Done || task.Done || task.NumActive() != k {
				t.Fatalf("setup: task 0 done %v, task 1 done %v with %d active attempts, want true, false, %d",
					job.Tasks[0].Done, task.Done, task.NumActive(), k)
			}

			calls := 0
			counting := func(a *mapreduce.Attempt, now float64) float64 {
				calls++
				return mapreduce.ChronosEstimator(a, now)
			}
			site.run(ctl, task, counting)
			if calls != k {
				t.Errorf("%d estimator calls for %d running attempts, want %d", calls, k, k)
			}
		})
	}
}
