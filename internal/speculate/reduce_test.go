package speculate

import (
	"testing"

	"chronos/internal/cluster"
	"chronos/internal/mapreduce"
	"chronos/internal/pareto"
	"chronos/internal/sim"
)

// reduceSpec returns a two-stage job: 8 map tasks feeding 4 reduce tasks.
func reduceSpec() mapreduce.JobSpec {
	spec := baseSpec()
	spec.NumTasks = 8
	spec.Deadline = 200
	spec.Reduce = mapreduce.ReduceSpec{
		NumTasks: 4,
		Dist:     pareto.MustNew(8, 1.6),
	}
	return spec
}

func runReduceJob(t *testing.T, strat mapreduce.Strategy, seed uint64) *mapreduce.Job {
	t.Helper()
	eng := sim.NewEngine()
	cl, err := cluster.New(eng, cluster.Config{Nodes: 16, SlotsPerNode: 8})
	if err != nil {
		t.Fatal(err)
	}
	rt := mapreduce.NewRuntime(eng, cl, mapreduce.Config{Seed: seed})
	job, err := rt.Submit(reduceSpec(), strat)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !job.Done {
		t.Fatalf("%s: two-stage job did not complete", strat.Name())
	}
	return job
}

func TestReduceStageAllStrategies(t *testing.T) {
	strategies := []mapreduce.Strategy{
		HadoopNS{}, HadoopS{}, Mantri{},
		clone(chronosCfg()), restart(chronosCfg()), resume(chronosCfg()),
	}
	for _, strat := range strategies {
		job := runReduceJob(t, strat, 51)

		if !job.MapDone {
			t.Errorf("%s: MapDone not set", strat.Name())
		}
		if job.MapFinishTime > job.FinishTime {
			t.Errorf("%s: map finished at %v after job finish %v",
				strat.Name(), job.MapFinishTime, job.FinishTime)
		}
		if got := len(job.MapTasks()); got != 8 {
			t.Errorf("%s: %d map tasks, want 8", strat.Name(), got)
		}
		if got := len(job.ReduceTasks()); got != 4 {
			t.Errorf("%s: %d reduce tasks, want 4", strat.Name(), got)
		}
		// The barrier: no reduce attempt may start before the last map task
		// finished.
		for _, rt := range job.ReduceTasks() {
			if rt.Stage != mapreduce.StageReduce {
				t.Errorf("%s: reduce task %d has stage %v", strat.Name(), rt.ID, rt.Stage)
			}
			if len(rt.Attempts) == 0 {
				t.Errorf("%s: reduce task %d never attempted", strat.Name(), rt.ID)
				continue
			}
			for _, a := range rt.Attempts {
				if a.RequestTime < job.MapFinishTime-1e-9 {
					t.Errorf("%s: reduce attempt requested at %v before map finish %v",
						strat.Name(), a.RequestTime, job.MapFinishTime)
				}
			}
		}
	}
}

func TestReduceStagePlansSeparately(t *testing.T) {
	job := runReduceJob(t, resume(chronosCfg()), 53)
	if job.ChosenR < 0 {
		t.Error("map-stage r not recorded")
	}
	if job.ChosenReduceR < 0 {
		t.Error("reduce-stage r not recorded")
	}
}

func TestReduceStageCloneClonesBothStages(t *testing.T) {
	cfg := chronosCfg()
	cfg.FixedR = 2
	job := runReduceJob(t, clone(cfg), 55)
	for _, task := range job.Tasks {
		if len(task.Attempts) != 3 {
			t.Errorf("%v task %d has %d attempts, want 3", task.Stage, task.ID, len(task.Attempts))
		}
	}
	if job.ChosenR != 2 || job.ChosenReduceR != 2 {
		t.Errorf("recorded r = %d/%d, want 2/2", job.ChosenR, job.ChosenReduceR)
	}
}

func TestMapOnlyJobHasNoReduceState(t *testing.T) {
	eng := sim.NewEngine()
	cl, err := cluster.New(eng, cluster.Config{Nodes: 16, SlotsPerNode: 8})
	if err != nil {
		t.Fatal(err)
	}
	rt := mapreduce.NewRuntime(eng, cl, mapreduce.Config{Seed: 57})
	job, err := rt.Submit(baseSpec(), HadoopNS{})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(job.ReduceTasks()) != 0 {
		t.Error("map-only job has reduce tasks")
	}
	if !job.MapDone || job.MapFinishTime != job.FinishTime {
		t.Errorf("map-only: MapDone=%v MapFinishTime=%v FinishTime=%v",
			job.MapDone, job.MapFinishTime, job.FinishTime)
	}
	if job.ChosenReduceR != -1 {
		t.Errorf("map-only ChosenReduceR = %d, want -1", job.ChosenReduceR)
	}
}

func TestReduceSpecValidation(t *testing.T) {
	spec := reduceSpec()
	spec.Reduce.Dist.TMin = 0
	if err := spec.Validate(); err == nil {
		t.Error("bad reduce dist accepted")
	}
	spec = reduceSpec()
	spec.MapDeadlineFrac = 1.2
	if err := spec.Validate(); err == nil {
		t.Error("bad map deadline fraction accepted")
	}
}

func TestMapBudget(t *testing.T) {
	spec := baseSpec()
	if got := spec.MapBudget(); got != spec.Deadline {
		t.Errorf("map-only MapBudget = %v, want full deadline", got)
	}
	spec = reduceSpec()
	if got := spec.MapBudget(); got != 100 { // default 0.5 of 200
		t.Errorf("default MapBudget = %v, want 100", got)
	}
	spec.MapDeadlineFrac = 0.7
	if got := spec.MapBudget(); got != 140 {
		t.Errorf("MapBudget with frac 0.7 = %v, want 140", got)
	}
}

func TestReduceUsesOwnDistribution(t *testing.T) {
	job := runReduceJob(t, HadoopNS{}, 59)
	// Reduce intrinsic times come from Pareto(8, 1.6): all >= 8 and
	// statistically distinct from the map stage's tmin=10.
	for _, task := range job.ReduceTasks() {
		for _, a := range task.Attempts {
			if a.Intrinsic < 8 {
				t.Errorf("reduce intrinsic %v below reduce tmin 8", a.Intrinsic)
			}
		}
	}
	for _, task := range job.MapTasks() {
		for _, a := range task.Attempts {
			if a.Intrinsic < 10 {
				t.Errorf("map intrinsic %v below map tmin 10", a.Intrinsic)
			}
		}
	}
}

func TestLaunchReduceBeforeMapPanics(t *testing.T) {
	eng := sim.NewEngine()
	cl, err := cluster.New(eng, cluster.Config{Nodes: 4, SlotsPerNode: 8})
	if err != nil {
		t.Fatal(err)
	}
	rt := mapreduce.NewRuntime(eng, cl, mapreduce.Config{Seed: 61})
	bad := hookedStrategy{start: func(ctl *mapreduce.Controller) {
		defer func() {
			if recover() == nil {
				t.Error("launching a reduce task before map completion did not panic")
			}
		}()
		ctl.Launch(ctl.Job().ReduceTasks()[0], 0)
	}}
	if _, err := rt.Submit(reduceSpec(), bad); err != nil {
		t.Fatal(err)
	}
	eng.Run()
}

type hookedStrategy struct {
	start func(ctl *mapreduce.Controller)
}

func (hookedStrategy) Name() string                    { return "hooked" }
func (h hookedStrategy) Start(c *mapreduce.Controller) { h.start(c) }
