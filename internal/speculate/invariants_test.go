package speculate

import (
	"math"
	"testing"

	"chronos/internal/cluster"
	"chronos/internal/mapreduce"
	"chronos/internal/sim"
)

// TestConservationInvariants checks the accounting identities that must
// hold for every strategy on every run:
//
//  1. job machine time equals the sum of its attempts' occupancy;
//  2. the cluster meter equals the sum of job machine times;
//  3. no attempt ends before it launches, and every attempt reaches a
//     terminal state;
//  4. at least one attempt finishes per task (redundant attempts that no
//     strategy killed may finish late, but the task records the first);
//  5. task and job finish times are consistent.
func TestConservationInvariants(t *testing.T) {
	strategies := []mapreduce.Strategy{
		HadoopNS{}, HadoopS{}, Mantri{}, LATE{},
		clone(chronosCfg()), restart(chronosCfg()), resume(chronosCfg()),
	}
	for _, strat := range strategies {
		eng := sim.NewEngine()
		cl, err := cluster.New(eng, cluster.Config{
			Nodes: 8, SlotsPerNode: 4, // deliberately tight: queueing happens
			Contention: cluster.HotspotContention{P: 0.3, Mean: 2},
			Seed:       7,
		})
		if err != nil {
			t.Fatal(err)
		}
		rt := mapreduce.NewRuntime(eng, cl, mapreduce.Config{Seed: 7})
		var jobs []*mapreduce.Job
		for i := 0; i < 20; i++ {
			spec := baseSpec()
			spec.ID = i
			spec.Arrival = float64(i) * 50 // overlapping jobs
			job, err := rt.Submit(spec, strat)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job)
		}
		eng.Run()

		var totalMachine float64
		for _, job := range jobs {
			if !job.Done {
				t.Fatalf("%s: job %d incomplete", strat.Name(), job.Spec.ID)
			}
			var jobSum float64
			for _, task := range job.Tasks {
				if !task.Done {
					t.Fatalf("%s: task not done in done job", strat.Name())
				}
				finishes := 0
				var firstFinish float64 = math.Inf(1)
				for _, a := range task.Attempts {
					switch a.State {
					case mapreduce.AttemptQueued, mapreduce.AttemptRunning:
						t.Errorf("%s: attempt still %v after drain", strat.Name(), a.State)
					case mapreduce.AttemptFinished:
						finishes++
						if a.EndTime < firstFinish {
							firstFinish = a.EndTime
						}
					}
					// Attempts that actually ran have a sampled intrinsic
					// time; killed-while-queued ones never consumed a
					// container.
					if a.Intrinsic > 0 {
						if a.EndTime < a.LaunchTime-1e-9 {
							t.Errorf("%s: attempt ended %v before launch %v",
								strat.Name(), a.EndTime, a.LaunchTime)
						}
						jobSum += a.EndTime - a.LaunchTime
					}
				}
				if finishes == 0 {
					t.Errorf("%s: task completed without a finished attempt", strat.Name())
				}
				if math.Abs(task.FinishTime-firstFinish) > 1e-9 {
					t.Errorf("%s: task finish %v != first attempt finish %v",
						strat.Name(), task.FinishTime, firstFinish)
				}
				if task.FinishTime > job.FinishTime+1e-9 {
					t.Errorf("%s: task finished %v after job %v",
						strat.Name(), task.FinishTime, job.FinishTime)
				}
			}
			// Killed-while-queued attempts never ran; they contribute zero.
			if math.Abs(job.MachineTime-jobSum) > 1e-6 {
				t.Errorf("%s: job machine time %v, attempt sum %v",
					strat.Name(), job.MachineTime, jobSum)
			}
			totalMachine += job.MachineTime
		}
		if meter := cl.Meter().MachineTime(); math.Abs(meter-totalMachine) > 1e-6 {
			t.Errorf("%s: cluster meter %v, job sum %v", strat.Name(), meter, totalMachine)
		}
		if cl.InUse() != 0 {
			t.Errorf("%s: %d containers leaked", strat.Name(), cl.InUse())
		}
	}
}
