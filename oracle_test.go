package chronos_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"chronos"
	"chronos/internal/race"
)

// TestModelOracle checks that the cluster delivers what the closed forms
// predict where the model's assumptions hold: an ample cluster (no attempt
// waits for a container), container start-up at effectively zero, exact
// progress observation and a fixed r. Each cell simulates a stream of one job
// shape under one Chronos strategy and compares the measured PoCD with PoCD,
// within three binomial standard errors, and the mean machine time with
// ExpectedMachineTime, within 1 %. A sign error that keeps the model monotone
// passes every shape check and fails here. Under -short (and -race) a cell is
// 500 jobs, and the machine-time band is 5 %: task times with a tail index
// of 1.5 have infinite variance, so a mean over a quarter of the samples
// strays further (4.2 % in the r = 0 cells at 500 jobs, 0.1 % at 2,000).
//
// The two-stage column runs each cell's map stage inside a two-stage job: the
// deadline is 2·D, so the map stage is planned for and judged against D, and
// one reduce task of tmin 1e-3 follows it. A job's elapsed time is then its
// map stage to within milliseconds, and the share of jobs done by D must
// match PoCD at D, with the same bounds.
func TestModelOracle(t *testing.T) {
	jobs, band := 2000, 0.01
	if testing.Short() || race.Enabled {
		jobs, band = 500, 0.05
	}
	const tmin = 10
	for _, shape := range []struct {
		tasks    int
		deadline float64
		beta     float64
		r        int
	}{
		{10, 100, 1.5, 1},
		{10, 100, 1.5, 2},
		{50, 60, 1.5, 2},
		{50, 60, 1.2, 3},
		{100, 40, 1.8, 1},
		{20, 30, 1.5, 0},
		{200, 80, 1.3, 2},
	} {
		stream := make([]chronos.SimJob, jobs)
		twoStage := make([]chronos.SimJob, jobs)
		for i := range stream {
			stream[i] = chronos.SimJob{
				Tasks: shape.tasks, Deadline: shape.deadline, TMin: tmin, Beta: shape.beta,
				Arrival: float64(i),
			}
			twoStage[i] = stream[i]
			twoStage[i].Deadline = 2 * shape.deadline
			twoStage[i].ReduceTasks, twoStage[i].ReduceTMin = 1, 1e-3
		}
		params := chronos.JobParams{
			Tasks: shape.tasks, Deadline: shape.deadline, TMin: tmin, Beta: shape.beta,
			TauEst: 0.3 * tmin, TauKill: 0.6 * tmin,
		}
		for _, s := range chronos.ChronosStrategies() {
			cfg := chronos.SimConfig{
				Strategy: s,
				// 262,144 slots: no stream here ever holds a tenth of that.
				Nodes: 4096, SlotsPerNode: 64,
				Seed:   7,
				TauEst: 0.3, TauKill: 0.6, TauScale: chronos.TauOfTMin,
				// Zero means the 1-3 s default; this is start-up the model
				// does not see.
				JVMMin: 1e-9, JVMMax: 1e-9,
				UseFixedR: true, FixedR: shape.r,
			}
			// check compares a delivered PoCD and mean machine time with
			// the closed forms at D.
			check := func(t *testing.T, delivered, meanMachine float64) {
				pocd, err := chronos.PoCD(s, params, shape.r)
				if err != nil {
					t.Fatal(err)
				}
				machine, err := chronos.ExpectedMachineTime(s, params, shape.r)
				if err != nil {
					t.Fatal(err)
				}
				z := 0.0
				if se := math.Sqrt(pocd * (1 - pocd) / float64(jobs)); se > 0 {
					z = (delivered - pocd) / se
				} else if delivered != pocd {
					z = math.Inf(1)
				}
				rel := meanMachine/machine - 1
				t.Logf("PoCD %.4f vs model %.4f (z %+.2f); machine time %.2f vs model %.2f (%+.2f %%)",
					delivered, pocd, z, meanMachine, machine, 100*rel)
				if math.Abs(z) > 3 {
					t.Errorf("PoCD %.4f is %.2f standard errors from the model's %.4f", delivered, z, pocd)
				}
				if math.Abs(rel) > band {
					t.Errorf("mean machine time %.2f is %+.2f %% from the model's %.2f", meanMachine, 100*rel, machine)
				}
			}
			name := fmt.Sprintf("%v/N=%d,D=%g,beta=%g,r=%d", s, shape.tasks, shape.deadline, shape.beta, shape.r)
			t.Run(name, func(t *testing.T) {
				rep, err := chronos.Simulate(cfg, stream)
				if err != nil {
					t.Fatal(err)
				}
				check(t, rep.PoCD, rep.MeanMachineTime)
			})
			t.Run("two-stage/"+name, func(t *testing.T) {
				met := 0
				rep, err := chronos.Replay(context.Background(), cfg, twoStage, chronos.ReplayOptions{
					Observer: chronos.ReplayObserverFunc(func(ev *chronos.ReplayEvent) error {
						if ev.Kind == chronos.EventJobCompleted && ev.Outcome.Finish-ev.Job.Arrival <= shape.deadline {
							met++
						}
						return nil
					}),
				})
				if err != nil {
					t.Fatal(err)
				}
				check(t, float64(met)/float64(jobs), rep.MeanMachineTime)
			})
		}
	}
}
