package mapreduce_test

import (
	"testing"

	"chronos/internal/analysis"
	"chronos/internal/cluster"
	"chronos/internal/mapreduce"
	"chronos/internal/optimize"
	"chronos/internal/pareto"
	"chronos/internal/sim"
	"chronos/internal/speculate"
)

// streamResult is what a run of a job stream decides: each job's outcome and
// the cluster meter.
type streamResult struct {
	jobs     []jobResult
	machine  float64
	releases uint64
	// launched and records count the attempts launched and the attempt
	// records the runtime allocated for them (lazy runs only).
	launched, records int
}

type jobResult struct {
	machineTime, finishTime float64
	chosenR, chosenReduceR  int
	met                     bool
}

// streamSpecs is an overlapping stream on a tight cluster: 40 jobs of 10
// tasks 37.3 s apart (so no arrival meets another job's control point at the
// same instant), every third with a reduce stage.
func streamSpecs() []mapreduce.JobSpec {
	specs := make([]mapreduce.JobSpec, 40)
	for i := range specs {
		specs[i] = mapreduce.JobSpec{
			ID: i, Name: "stream", NumTasks: 10, Deadline: 100,
			Dist: pareto.MustNew(10, 1.5), JVM: mapreduce.JVMModel{Min: 1, Max: 3},
			UnitPrice: 1, Arrival: float64(i) * 37.3,
		}
		if i%3 == 2 {
			specs[i].Reduce = mapreduce.ReduceSpec{NumTasks: 3, Dist: pareto.MustNew(8, 1.5)}
		}
	}
	return specs
}

// runStream replays the stream under one strategy. Up front, every job is
// submitted before the engine runs, so no record is ever reclaimed. Lazily,
// each job is submitted from an engine event at its arrival, as replay.Run
// does, so every Submit takes back the records of the tasks and jobs settled
// before it.
func runStream(t *testing.T, strat mapreduce.Strategy, lazy bool) streamResult {
	t.Helper()
	eng := sim.NewEngine()
	cl, err := cluster.New(eng, cluster.Config{Nodes: 8, SlotsPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	rt := mapreduce.NewRuntime(eng, cl, mapreduce.Config{Seed: 11})
	var res streamResult
	rt.OnJobSettled = func(job *mapreduce.Job) {
		for _, task := range job.Tasks {
			res.launched += task.Launched()
		}
	}
	specs := streamSpecs()
	jobs := make([]*mapreduce.Job, len(specs))
	for i, spec := range specs {
		submit := func() {
			if jobs[i], err = rt.Submit(spec, strat); err != nil {
				t.Fatal(err)
			}
		}
		if lazy {
			eng.Schedule(spec.Arrival, submit)
		} else {
			submit()
		}
	}
	eng.Run()
	for _, job := range jobs {
		if !job.Done {
			t.Fatalf("%s: job %d did not finish", strat.Name(), job.Spec.ID)
		}
		res.jobs = append(res.jobs, jobResult{job.MachineTime, job.FinishTime,
			job.ChosenR, job.ChosenReduceR, job.MetDeadline()})
	}
	res.machine, res.releases = cl.Meter().MachineTime(), cl.Meter().Releases()
	if lazy {
		// One more Submit takes back every record; none is launched after.
		spec := specs[0]
		spec.ID, spec.Arrival = len(specs), eng.Now()
		if _, err := rt.Submit(spec, speculate.HadoopNS{}); err != nil {
			t.Fatal(err)
		}
		res.records = rt.FreeAttempts()
	}
	return res
}

// TestLazySubmitMatchesUpFront: reclaiming a settled task's attempts, and a
// settled job's tasks, changes no decision. Every strategy gives bit-identical
// per-job outcomes and cluster meter whether its jobs are submitted up front
// or lazily; the lazy Clone stream reuses its attempt records.
func TestLazySubmitMatchesUpFront(t *testing.T) {
	cfg := speculate.ChronosConfig{TauEst: 30, TauKill: 60,
		Opt: optimize.Config{Theta: 1e-4, UnitPrice: 1}, FixedR: -1}
	strategies := []mapreduce.Strategy{
		speculate.HadoopNS{}, speculate.HadoopS{}, speculate.Mantri{},
		speculate.Chronos{Kind: analysis.StrategyClone, Config: cfg},
		speculate.Chronos{Kind: analysis.StrategyRestart, Config: cfg},
		speculate.Chronos{Kind: analysis.StrategyResume, Config: cfg},
	}
	for _, strat := range strategies {
		upFront, lazy := runStream(t, strat, false), runStream(t, strat, true)
		for i := range upFront.jobs {
			if upFront.jobs[i] != lazy.jobs[i] {
				t.Errorf("%s: job %d up front %+v, lazily %+v", strat.Name(), i, upFront.jobs[i], lazy.jobs[i])
			}
		}
		if upFront.machine != lazy.machine || upFront.releases != lazy.releases {
			t.Errorf("%s: cluster meter up front %v s over %d releases, lazily %v s over %d",
				strat.Name(), upFront.machine, upFront.releases, lazy.machine, lazy.releases)
		}
		if upFront.launched != lazy.launched {
			t.Errorf("%s: %d attempts launched up front, %d lazily", strat.Name(), upFront.launched, lazy.launched)
		}
		if strat.Name() == "Clone" {
			if 4*lazy.records > lazy.launched {
				t.Errorf("Clone: lazily allocated %d attempt records for %d launches, want at most a quarter",
					lazy.records, lazy.launched)
			} else {
				t.Logf("Clone: lazily allocated %d attempt records for %d launches", lazy.records, lazy.launched)
			}
		}
	}
}
