package mapreduce

import (
	"math"
	"testing"

	"chronos/internal/cluster"
	"chronos/internal/sim"
)

// observeHarness runs a single-task job under a report-configured runtime
// and returns the (running) original attempt.
func observeHarness(t *testing.T, cfg Config, until float64) (*sim.Engine, *Attempt) {
	t.Helper()
	eng := sim.NewEngine()
	cl, err := cluster.New(eng, cluster.Config{Nodes: 2, SlotsPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(eng, cl, cfg)
	spec := testSpec()
	spec.NumTasks = 1
	spec.JVM = JVMModel{Min: 2, Max: 2}
	job, err := rt.Submit(spec, plainStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(until)
	return eng, job.Tasks[0].Attempts[0]
}

func TestObserveContinuousByDefault(t *testing.T) {
	_, a := observeHarness(t, Config{Seed: 1}, 6)
	obs := a.Observe(6)
	if !obs.Valid {
		t.Fatal("no observation after JVM-ready under continuous mode")
	}
	if obs.At != 6 {
		t.Errorf("continuous observation at %v, want query time 6", obs.At)
	}
	if math.Abs(obs.Progress-a.OwnProgress(6)) > 1e-12 {
		t.Errorf("continuous observation %v != exact progress %v", obs.Progress, a.OwnProgress(6))
	}
}

func TestObservePeriodicReports(t *testing.T) {
	_, a := observeHarness(t, Config{Seed: 1, ReportInterval: 5}, 14)
	// JVM ready at 2; reports at 7 and 12; the first useful report is k=1.
	if obs := a.Observe(4); obs.Valid {
		t.Errorf("observation before the first report: %+v", obs)
	}
	obs := a.Observe(14)
	if !obs.Valid {
		t.Fatal("no observation at t=14 with reports at 7 and 12")
	}
	if obs.At != 12 {
		t.Errorf("observation timestamp %v, want last report at 12", obs.At)
	}
	if math.Abs(obs.Progress-a.OwnProgress(12)) > 1e-12 {
		t.Errorf("report progress %v != exact progress at report time %v",
			obs.Progress, a.OwnProgress(12))
	}
}

func TestObserveNoiseDeterministic(t *testing.T) {
	_, a := observeHarness(t, Config{Seed: 1, ReportInterval: 5, ReportNoise: 0.2}, 14)
	o1 := a.Observe(14)
	o2 := a.Observe(14)
	if !o1.Valid || o1 != o2 {
		t.Errorf("noisy observation not deterministic: %+v vs %+v", o1, o2)
	}
	if o1.Progress <= 0 || o1.Progress > 1 {
		t.Errorf("noisy progress %v out of range", o1.Progress)
	}
	// Noise actually perturbs (with overwhelming probability).
	if math.Abs(o1.Progress-a.OwnProgress(12)) < 1e-12 {
		t.Error("noise had no effect on the report")
	}
}

func TestEstimatorsDegradeGracefullyWithReports(t *testing.T) {
	// Under periodic exact reports, the Chronos estimator evaluated at the
	// report instants equals the truth; between reports it uses the stale
	// report and still returns the exact value (linear progress).
	_, a := observeHarness(t, Config{Seed: 1, ReportInterval: 5}, 14)
	want := a.FinishTime()
	if got := ChronosEstimator(a, 14); math.Abs(got-want) > 1e-9 {
		t.Errorf("ChronosEstimator with exact periodic reports = %v, want %v", got, want)
	}
	// Before the first report: unknown.
	if got := ChronosEstimator(a, 3); !math.IsInf(got, 1) {
		t.Errorf("ChronosEstimator before first report = %v, want +Inf", got)
	}
	if got := HadoopEstimator(a, 3); !math.IsInf(got, 1) {
		t.Errorf("HadoopEstimator before first report = %v, want +Inf", got)
	}
}

func TestNoisyEstimatesScatterAroundTruth(t *testing.T) {
	// With 10% report noise, Chronos estimates deviate from the truth but
	// remain within a plausible band. Query at t=11: the attempt (intrinsic
	// >= tmin = 10, ready at 2) is still running, with one report at t=7.
	_, a := observeHarness(t, Config{Seed: 3, ReportInterval: 5, ReportNoise: 0.1}, 11)
	truth := a.FinishTime()
	got := ChronosEstimator(a, 11)
	if math.IsInf(got, 0) {
		t.Fatal("no estimate despite reports")
	}
	if got == truth {
		t.Error("noisy estimate exactly equals truth")
	}
	if got < truth/2 || got > truth*2 {
		t.Errorf("noisy estimate %v implausibly far from truth %v", got, truth)
	}
}

// TestReportsCreateEstimationMistakes is the behavioural point of the
// feature: with noisy periodic reports, straggler detection at tauEst makes
// mistakes, so a Speculative-Restart run launches extra attempts for some
// non-stragglers and/or misses some stragglers — unlike the exact-estimator
// run, which is perfect in this substrate.
func TestReportsCreateEstimationMistakes(t *testing.T) {
	count := func(cfg Config) (falsePos int) {
		eng := sim.NewEngine()
		cl, err := cluster.New(eng, cluster.Config{Nodes: 64, SlotsPerNode: 8})
		if err != nil {
			t.Fatal(err)
		}
		rt := NewRuntime(eng, cl, cfg)
		deadline := 100.0
		var jobs []*Job
		for i := 0; i < 150; i++ {
			spec := testSpec()
			spec.ID = i
			spec.NumTasks = 10
			spec.Deadline = deadline
			spec.Arrival = float64(i) * 400
			job, err := rt.Submit(spec, restartProbe{})
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job)
		}
		eng.Run()
		for _, job := range jobs {
			for _, task := range job.Tasks {
				orig := task.Attempts[0]
				isStrag := orig.JVMDelay+orig.Intrinsic > deadline
				if !isStrag && len(task.Attempts) > 1 {
					falsePos++
				}
			}
		}
		return falsePos
	}
	exact := count(Config{Seed: 9})
	noisy := count(Config{Seed: 9, ReportInterval: 5, ReportNoise: 0.25})
	if exact != 0 {
		t.Errorf("exact estimator produced %d false positives", exact)
	}
	if noisy == 0 {
		t.Error("noisy reports produced no false positives; feature inert")
	}
}

// restartProbe is a minimal Speculative-Restart-like strategy used to count
// detection mistakes: at tauEst=30 it launches one extra attempt for every
// task whose Chronos estimate exceeds the deadline.
type restartProbe struct{}

func (restartProbe) Name() string { return "restart-probe" }

func (restartProbe) Start(ctl *Controller) {
	job := ctl.Job()
	for _, task := range job.Tasks {
		ctl.Launch(task, 0)
	}
	ctl.After(30, func() {
		now := ctl.Now()
		for _, task := range job.Tasks {
			if task.Done {
				continue
			}
			best, bestEst := task.BestRunning(now, ChronosEstimator)
			if best != nil && bestEst > job.Deadline() {
				ctl.Launch(task, 0)
			}
		}
	})
}
