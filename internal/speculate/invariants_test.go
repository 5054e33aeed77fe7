package speculate

import (
	"math"
	"testing"

	"chronos/internal/analysis"
	"chronos/internal/cluster"
	"chronos/internal/mapreduce"
	"chronos/internal/pareto"
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

// TestWaveBoundAgainstDES validates the multi-wave analytic bound: the
// synchronized-wave PoCD approximation is a lower bound, because the real
// (simulated) cluster overlaps waves as slots free up task by task.
func TestWaveBoundAgainstDES(t *testing.T) {
	const (
		tasks = 40
		slots = 40 // Clone at r=1 needs 80 => 2 synchronized waves
		r     = 1
		jobs  = 300
	)
	p := analysis.Params{
		N:        tasks,
		Deadline: 400,
		Task:     pareto.MustNew(10, 1.5),
		TauEst:   60,
		TauKill:  120,
	}
	wave, err := analysis.NewWaveModel(analysis.NewModel(analysis.StrategyClone, p), slots)
	if err != nil {
		t.Fatal(err)
	}
	bound := wave.PoCD(r)

	eng := sim.NewEngine()
	cl, err := cluster.New(eng, cluster.Config{Nodes: slots, SlotsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	rt := mapreduce.NewRuntime(eng, cl, mapreduce.Config{Seed: 5})
	cfg := ChronosConfig{TauEst: p.TauEst, TauKill: p.TauKill, FixedR: r}
	var sims []*mapreduce.Job
	for i := 0; i < jobs; i++ {
		spec := mapreduce.JobSpec{
			ID: i, Name: "wave", NumTasks: tasks, Deadline: p.Deadline,
			Dist: p.Task, UnitPrice: 1,
			Arrival: float64(i) * p.Deadline * 10,
		}
		job, err := rt.Submit(spec, clone(cfg))
		if err != nil {
			t.Fatal(err)
		}
		sims = append(sims, job)
	}
	eng.Run()

	met := 0
	for _, j := range sims {
		if !j.Done {
			t.Fatal("wave job incomplete")
		}
		if j.MetDeadline() {
			met++
		}
	}
	des := float64(met) / jobs
	// The DES overlaps waves, so it should meet at least the synchronized
	// bound (minus MC noise).
	if des < bound-0.05 {
		t.Errorf("DES PoCD %v below synchronized-wave bound %v", des, bound)
	}
}

// TestPlanSlotsUsesWaveModel checks wave-aware planning: with PlanSlots
// set, the chosen r must be near-optimal for the slot-constrained
// (WaveModel) utility, not the unconstrained one. Note the wave model can
// legitimately pick a *larger* r than the unconstrained plan: several short
// waves of heavily-replicated tasks can beat one long wave of single
// attempts.
func TestPlanSlotsUsesWaveModel(t *testing.T) {
	spec := baseSpec()
	spec.NumTasks = 40
	spec.Deadline = 120

	cfg := chronosCfg()
	cfg.TauEst, cfg.TauKill = 20, 40
	cfg.PlanSlots = 40
	got := chooseR(cfg, analysis.StrategyClone, spec)

	inner := analysis.NewModel(analysis.StrategyClone, analysis.Params{
		N: spec.NumTasks, Deadline: spec.Deadline, Task: spec.Dist,
		TauEst: cfg.TauEst, TauKill: cfg.TauKill,
	})
	wave, err := analysis.NewWaveModel(inner, cfg.PlanSlots)
	if err != nil {
		t.Fatal(err)
	}
	ocfg := cfg.Opt
	ocfg.UnitPrice = spec.UnitPrice
	bestU, bestR := math.Inf(-1), -1
	for r := 0; r <= 30; r++ {
		if u := ocfg.Utility(wave, r); u > bestU {
			bestU, bestR = u, r
		}
	}
	// The wave utility is not globally unimodal (wave-count steps), so the
	// hybrid optimizer may land on a local plateau; accept anything within
	// a small utility gap of the brute-force optimum.
	if gotU := ocfg.Utility(wave, got); gotU < bestU-0.05 {
		t.Errorf("slot-aware choice r=%d (U=%v) far from brute-force r=%d (U=%v)",
			got, gotU, bestR, bestU)
	}
}
