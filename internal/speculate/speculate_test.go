package speculate

import (
	"math"
	"testing"

	"chronos/internal/analysis"
	"chronos/internal/cluster"
	"chronos/internal/mapreduce"
	"chronos/internal/optimize"
	"chronos/internal/pareto"
	"chronos/internal/sim"
)

// batchResult aggregates a batch run for one strategy.
type batchResult struct {
	pocd        float64
	meanMachine float64
	jobs        []*mapreduce.Job
}

// runBatch executes jobs identical up to their random streams under one
// strategy on an uncontended, amply provisioned cluster.
func runBatch(t *testing.T, strat mapreduce.Strategy, numJobs int, spec mapreduce.JobSpec, seed uint64) batchResult {
	t.Helper()
	eng := sim.NewEngine()
	cl, err := cluster.New(eng, cluster.Config{Nodes: 64, SlotsPerNode: 16})
	if err != nil {
		t.Fatal(err)
	}
	rt := mapreduce.NewRuntime(eng, cl, mapreduce.Config{Seed: seed})
	var jobs []*mapreduce.Job
	for i := 0; i < numJobs; i++ {
		s := spec
		s.ID = i
		// Sequential batches: jobs spaced far apart so capacity is ample.
		s.Arrival = float64(i) * (spec.Deadline * 10)
		job, err := rt.Submit(s, strat)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	eng.Run()

	met := 0
	var machine float64
	for _, j := range jobs {
		if !j.Done {
			t.Fatalf("%s: job %d did not complete", strat.Name(), j.Spec.ID)
		}
		if j.MetDeadline() {
			met++
		}
		machine += j.MachineTime
	}
	return batchResult{
		pocd:        float64(met) / float64(numJobs),
		meanMachine: machine / float64(numJobs),
		jobs:        jobs,
	}
}

func baseSpec() mapreduce.JobSpec {
	return mapreduce.JobSpec{
		Name:      "unit",
		NumTasks:  10,
		Deadline:  100,
		Dist:      pareto.MustNew(10, 1.5),
		UnitPrice: 1,
	}
}

func chronosCfg() ChronosConfig {
	return ChronosConfig{
		TauEst:  30,
		TauKill: 60,
		Opt:     optimize.Config{Theta: 1e-4, UnitPrice: 1},
		FixedR:  -1,
	}
}

// clone, restart and resume build the three Chronos strategies.
func clone(cfg ChronosConfig) Chronos {
	return Chronos{Kind: analysis.StrategyClone, Config: cfg}
}

func restart(cfg ChronosConfig) Chronos {
	return Chronos{Kind: analysis.StrategyRestart, Config: cfg}
}

func resume(cfg ChronosConfig) Chronos {
	return Chronos{Kind: analysis.StrategyResume, Config: cfg}
}

// chooseR plans the map stage of a map-only spec arriving at 0 as a strategy
// would at submission.
func chooseR(c ChronosConfig, s analysis.Strategy, spec mapreduce.JobSpec) int {
	st := stage{kind: mapreduce.StageMap, tasks: make([]*mapreduce.Task, spec.NumTasks), deadline: spec.Deadline}
	return c.chooseStageR(s, &mapreduce.Job{Spec: spec}, st, 0)
}

const batchJobs = 400

func TestStrategyNames(t *testing.T) {
	tests := []struct {
		s    mapreduce.Strategy
		want string
	}{
		{HadoopNS{}, "Hadoop-NS"},
		{HadoopS{}, "Hadoop-S"},
		{Mantri{}, "Mantri"},
		{clone(ChronosConfig{}), "Clone"},
		{restart(ChronosConfig{}), "Speculative-Restart"},
		{resume(ChronosConfig{}), "Speculative-Resume"},
	}
	for _, tt := range tests {
		if got := tt.s.Name(); got != tt.want {
			t.Errorf("Name() = %q, want %q", got, tt.want)
		}
	}
}

func TestHadoopNSMatchesClosedForm(t *testing.T) {
	spec := baseSpec()
	res := runBatch(t, HadoopNS{}, batchJobs, spec, 101)
	// No speculation is one attempt per task: the Clone closed form at r = 0.
	want := analysis.NewModel(analysis.StrategyClone, analysis.Params{
		N: spec.NumTasks, Deadline: spec.Deadline, Task: spec.Dist,
	}).PoCD(0)
	if math.Abs(res.pocd-want) > 0.05 {
		t.Errorf("Hadoop-NS simulated PoCD %v vs closed form %v", res.pocd, want)
	}
	// One attempt per task, always.
	for _, j := range res.jobs {
		for _, task := range j.Tasks {
			if len(task.Attempts) != 1 {
				t.Fatalf("Hadoop-NS launched %d attempts", len(task.Attempts))
			}
		}
	}
}

func TestCloneMatchesClosedForm(t *testing.T) {
	spec := baseSpec()
	cfg := chronosCfg()
	cfg.FixedR = 2
	res := runBatch(t, clone(cfg), batchJobs, spec, 7)

	model := analysis.NewModel(analysis.StrategyClone, analysis.Params{
		N: spec.NumTasks, Deadline: spec.Deadline, Task: spec.Dist,
		TauEst: cfg.TauEst, TauKill: cfg.TauKill,
	})
	if want := model.PoCD(2); math.Abs(res.pocd-want) > 0.05 {
		t.Errorf("Clone simulated PoCD %v vs Theorem 1 %v", res.pocd, want)
	}
	// Machine time: Theorem 2 charges every loser exactly tauKill, an upper
	// bound; the simulator releases attempts that finish early, so the
	// DES-consistent expectation per task is (r+1)*E[min(T, tauKill)] plus
	// the survivor's overshoot past tauKill. Check the simulated mean sits
	// between that floor and the Theorem 2 ceiling.
	upper := model.MachineTime(2)
	d := spec.Dist
	eMinTK := d.MeanBelow(cfg.TauKill)*(1-d.Survival(cfg.TauKill)) + cfg.TauKill*d.Survival(cfg.TauKill)
	lower := float64(spec.NumTasks) * 3 * eMinTK // r+1 = 3 attempts
	if res.meanMachine > upper*1.02 {
		t.Errorf("Clone simulated machine time %v above Theorem 2 ceiling %v", res.meanMachine, upper)
	}
	if res.meanMachine < lower*0.95 {
		t.Errorf("Clone simulated machine time %v below DES floor %v", res.meanMachine, lower)
	}
}

func TestCloneLaunchesRPlusOne(t *testing.T) {
	cfg := chronosCfg()
	cfg.FixedR = 3
	res := runBatch(t, clone(cfg), 5, baseSpec(), 3)
	for _, j := range res.jobs {
		if j.ChosenR != 3 {
			t.Errorf("ChosenR = %d, want 3", j.ChosenR)
		}
		for _, task := range j.Tasks {
			if len(task.Attempts) != 4 {
				t.Errorf("task has %d attempts, want 4", len(task.Attempts))
			}
		}
	}
}

func TestCloneOptimizerPicksR(t *testing.T) {
	res := runBatch(t, clone(chronosCfg()), 3, baseSpec(), 4)
	want, err := optimize.Solve(
		analysis.NewModel(analysis.StrategyClone, analysis.Params{
			N: 10, Deadline: 100, Task: baseSpec().Dist, TauEst: 30, TauKill: 60,
		}),
		optimize.Config{Theta: 1e-4, UnitPrice: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.jobs {
		if j.ChosenR != want.R {
			t.Errorf("ChosenR = %d, optimizer says %d", j.ChosenR, want.R)
		}
	}
}

func TestRestartSpeculatesOnlyOnStragglers(t *testing.T) {
	cfg := chronosCfg()
	cfg.FixedR = 2
	res := runBatch(t, restart(cfg), batchJobs, baseSpec(), 11)
	deadline := baseSpec().Deadline
	for _, j := range res.jobs {
		for _, task := range j.Tasks {
			orig := task.Attempts[0]
			isStrag := orig.JVMDelay+orig.Intrinsic > deadline
			if task.FinishTime-j.Spec.Arrival <= cfg.TauEst && len(task.Attempts) > 1 {
				t.Errorf("task finished before tauEst but has %d attempts", len(task.Attempts))
			}
			if isStrag && !task.Done {
				continue
			}
			if !isStrag && len(task.Attempts) != 1 {
				// The Chronos estimator is exact in this substrate, so
				// non-stragglers must never receive extra attempts.
				t.Errorf("non-straggler task got %d attempts (orig time %v)",
					len(task.Attempts), orig.Intrinsic)
			}
			if isStrag && len(task.Attempts) != 3 {
				t.Errorf("straggler got %d attempts, want 3 (r=2 extras)", len(task.Attempts))
			}
		}
	}
	// PoCD against Theorem 3.
	model := analysis.NewModel(analysis.StrategyRestart, analysis.Params{
		N: 10, Deadline: 100, Task: baseSpec().Dist, TauEst: 30, TauKill: 60,
	})
	if want := model.PoCD(2); math.Abs(res.pocd-want) > 0.05 {
		t.Errorf("Restart simulated PoCD %v vs Theorem 3 %v", res.pocd, want)
	}
}

func TestResumeKillsOriginalAndResumesOffset(t *testing.T) {
	cfg := chronosCfg()
	cfg.FixedR = 2
	res := runBatch(t, resume(cfg), batchJobs, baseSpec(), 13)
	for _, j := range res.jobs {
		for _, task := range j.Tasks {
			if len(task.Attempts) == 1 {
				continue // not a straggler
			}
			orig := task.Attempts[0]
			if orig.State != mapreduce.AttemptKilled {
				t.Errorf("straggler original state %v, want killed", orig.State)
			}
			if len(task.Attempts) != 4 {
				t.Errorf("straggler has %d attempts, want 1 original + 3 resumed", len(task.Attempts))
			}
			for _, a := range task.Attempts[1:] {
				if a.StartFrac <= 0 {
					t.Errorf("resumed attempt StartFrac = %v, want > 0", a.StartFrac)
				}
				// Work preservation: resumed attempts skip at least the
				// bytes the original had processed at detection.
				if a.StartFrac < orig.Progress(orig.EndTime)-1e-9 {
					t.Errorf("resumed attempt starts at %v before original's offset %v",
						a.StartFrac, orig.Progress(orig.EndTime))
				}
			}
		}
	}
}

func TestResumePoCDBeatsRestart(t *testing.T) {
	cfg := chronosCfg()
	cfg.FixedR = 1
	restart := runBatch(t, restart(cfg), batchJobs, baseSpec(), 17)
	resume := runBatch(t, resume(cfg), batchJobs, baseSpec(), 17)
	// Theorem 7(2): Resume dominates Restart at equal r. With common random
	// numbers the ordering holds tightly; allow MC slack.
	if resume.pocd < restart.pocd-0.02 {
		t.Errorf("Resume PoCD %v < Restart PoCD %v", resume.pocd, restart.pocd)
	}
	if resume.meanMachine > restart.meanMachine*1.05 {
		t.Errorf("Resume machine time %v exceeds Restart %v", resume.meanMachine, restart.meanMachine)
	}
}

func TestChronosStrategiesBeatHadoopNS(t *testing.T) {
	spec := baseSpec()
	cfg := chronosCfg()
	ns := runBatch(t, HadoopNS{}, batchJobs, spec, 19)
	for _, strat := range []mapreduce.Strategy{
		clone(cfg), restart(cfg), resume(cfg),
	} {
		res := runBatch(t, strat, batchJobs, spec, 19)
		if res.pocd < ns.pocd {
			t.Errorf("%s PoCD %v below Hadoop-NS %v", strat.Name(), res.pocd, ns.pocd)
		}
	}
}

func TestAfterTauKillOneAttemptPerTask(t *testing.T) {
	cfg := chronosCfg()
	cfg.FixedR = 3
	spec := baseSpec()
	eng := sim.NewEngine()
	cl, err := cluster.New(eng, cluster.Config{Nodes: 64, SlotsPerNode: 16})
	if err != nil {
		t.Fatal(err)
	}
	rt := mapreduce.NewRuntime(eng, cl, mapreduce.Config{Seed: 23})
	job, err := rt.Submit(spec, clone(cfg))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(cfg.TauKill + 0.001)
	for _, task := range job.Tasks {
		n := 0
		for _, a := range task.Attempts {
			if a.Running() {
				n++
			}
		}
		if n > 1 {
			t.Errorf("task %d has %d running attempts after tauKill", task.ID, n)
		}
	}
	eng.Run()
	if !job.Done {
		t.Error("job did not complete")
	}
}

func TestHadoopSSpeculatesAfterFirstFinish(t *testing.T) {
	spec := baseSpec()
	res := runBatch(t, HadoopS{}, batchJobs, spec, 29)
	for _, j := range res.jobs {
		var firstDone float64 = math.Inf(1)
		for _, task := range j.Tasks {
			if task.FinishTime < firstDone {
				firstDone = task.FinishTime
			}
		}
		for _, task := range j.Tasks {
			for _, a := range task.Attempts[1:] {
				if a.RequestTime < firstDone {
					t.Errorf("speculative attempt launched at %v before first task finish %v",
						a.RequestTime, firstDone)
				}
			}
			if len(task.Attempts) > 2 {
				t.Errorf("Hadoop-S launched %d attempts for one task, cap is 2", len(task.Attempts))
			}
		}
	}
	// Speculation must help over no speculation.
	ns := runBatch(t, HadoopNS{}, batchJobs, spec, 29)
	if res.pocd < ns.pocd-0.02 {
		t.Errorf("Hadoop-S PoCD %v below Hadoop-NS %v", res.pocd, ns.pocd)
	}
}

func TestMantriRespectsCaps(t *testing.T) {
	res := runBatch(t, Mantri{},
		batchJobs/2, baseSpec(), 31)
	for _, j := range res.jobs {
		for _, task := range j.Tasks {
			if extras := len(task.Attempts) - 1; extras > 3 {
				t.Errorf("Mantri launched %d extras, cap 3", extras)
			}
		}
	}
}

func TestMantriKeepsBestAfterPrune(t *testing.T) {
	// Mantri's PoCD must at least match Hadoop-NS (it only adds attempts).
	ns := runBatch(t, HadoopNS{}, batchJobs, baseSpec(), 37)
	mantri := runBatch(t, Mantri{}, batchJobs, baseSpec(), 37)
	if mantri.pocd < ns.pocd-0.02 {
		t.Errorf("Mantri PoCD %v below Hadoop-NS %v", mantri.pocd, ns.pocd)
	}
}

func TestChooseRFallsBackOnInfeasible(t *testing.T) {
	cfg := chronosCfg()
	cfg.Opt.RMin = 0.99999999 // infeasible: forces optimizer error
	spec := baseSpec()
	spec.Deadline = 10.5
	cfg.TauEst = 0.2
	cfg.TauKill = 0.4
	if r := chooseR(cfg, analysis.StrategyClone, spec); r != 1 {
		t.Errorf("chooseR fallback = %d, want 1", r)
	}
}

func TestFixedROverridesOptimizer(t *testing.T) {
	cfg := chronosCfg()
	cfg.FixedR = 7
	if r := chooseR(cfg, analysis.StrategyResume, baseSpec()); r != 7 {
		t.Errorf("chooseR with FixedR = %d, want 7", r)
	}
}
