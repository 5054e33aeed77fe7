package mapreduce

import (
	"math"
	"slices"
	"testing"

	"chronos/internal/cluster"
	"chronos/internal/pareto"
	"chronos/internal/sim"
)

// plainStrategy launches one original attempt per task and does nothing
// else: the Hadoop-NS behaviour, enough to exercise the runtime.
type plainStrategy struct{}

func (plainStrategy) Name() string { return "plain" }

func (plainStrategy) Start(ctl *Controller) {
	for _, t := range ctl.Job().Tasks {
		ctl.Launch(t, 0)
	}
}

func testSpec() JobSpec {
	return JobSpec{
		ID:        1,
		Name:      "test",
		NumTasks:  4,
		Deadline:  100,
		Dist:      pareto.MustNew(10, 1.5),
		JVM:       JVMModel{Min: 2, Max: 2},
		UnitPrice: 1,
	}
}

func newHarness(t *testing.T, cfg Config) (*sim.Engine, *cluster.Cluster, *Runtime) {
	t.Helper()
	eng := sim.NewEngine()
	cl, err := cluster.New(eng, cluster.Config{Nodes: 8, SlotsPerNode: 8})
	if err != nil {
		t.Fatal(err)
	}
	return eng, cl, NewRuntime(eng, cl, cfg)
}

func TestSpecValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*JobSpec)
		ok     bool
	}{
		{"valid", func(s *JobSpec) {}, true},
		{"no tasks", func(s *JobSpec) { s.NumTasks = 0 }, false},
		{"bad dist", func(s *JobSpec) { s.Dist.TMin = 0 }, false},
		{"zero deadline", func(s *JobSpec) { s.Deadline = 0 }, false},
		{"negative jvm", func(s *JobSpec) { s.JVM.Min = -1 }, false},
		{"jvm max below min", func(s *JobSpec) { s.JVM = JVMModel{Min: 3, Max: 1} }, false},
		{"negative arrival", func(s *JobSpec) { s.Arrival = -5 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := testSpec()
			tt.mutate(&s)
			if err := s.Validate(); (err == nil) != tt.ok {
				t.Errorf("Validate() = %v, ok=%v", err, tt.ok)
			}
		})
	}
}

func TestSubmitRejectsNilStrategy(t *testing.T) {
	_, _, rt := newHarness(t, Config{})
	if _, err := rt.Submit(testSpec(), nil); err == nil {
		t.Error("Submit with nil strategy succeeded")
	}
}

func TestJobRunsToCompletion(t *testing.T) {
	eng, cl, rt := newHarness(t, Config{Seed: 1})
	job, err := rt.Submit(testSpec(), plainStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !job.Done {
		t.Fatal("job did not complete")
	}
	if job.doneTasks != 4 {
		t.Errorf("doneTasks = %d, want 4", job.doneTasks)
	}
	// Every attempt finished exactly once; machine time matches the meter.
	var total float64
	for _, task := range job.Tasks {
		if len(task.Attempts) != 1 {
			t.Errorf("task %d has %d attempts, want 1", task.ID, len(task.Attempts))
		}
		a := task.Attempts[0]
		if a.State != AttemptFinished {
			t.Errorf("task %d attempt state %v", task.ID, a.State)
		}
		total += a.EndTime - a.LaunchTime
	}
	if math.Abs(job.MachineTime-total) > 1e-9 {
		t.Errorf("job machine time %v, attempt sum %v", job.MachineTime, total)
	}
	if math.Abs(cl.Meter().MachineTime()-total) > 1e-9 {
		t.Errorf("cluster meter %v, attempt sum %v", cl.Meter().MachineTime(), total)
	}
	// Finish time = max attempt finish; attempt model = jvm + intrinsic.
	for _, task := range job.Tasks {
		a := task.Attempts[0]
		want := a.LaunchTime + a.JVMDelay + a.Intrinsic
		if math.Abs(a.EndTime-want) > 1e-9 {
			t.Errorf("attempt end %v, want launch+jvm+intrinsic = %v", a.EndTime, want)
		}
	}
}

func TestArrivalDelaysStart(t *testing.T) {
	eng, _, rt := newHarness(t, Config{Seed: 1})
	spec := testSpec()
	spec.Arrival = 50
	job, err := rt.Submit(spec, plainStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	for _, task := range job.Tasks {
		if task.Attempts[0].LaunchTime < 50 {
			t.Errorf("attempt launched at %v before arrival 50", task.Attempts[0].LaunchTime)
		}
	}
	if job.FinishTime < 50 {
		t.Errorf("job finished at %v before arrival", job.FinishTime)
	}
}

func TestCommonRandomNumbersAcrossRuns(t *testing.T) {
	run := func() []float64 {
		eng, _, rt := newHarness(t, Config{Seed: 42})
		job, _ := rt.Submit(testSpec(), plainStrategy{})
		eng.Run()
		var xs []float64
		for _, task := range job.Tasks {
			xs = append(xs, task.Attempts[0].Intrinsic)
		}
		return xs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("intrinsic samples differ across identical runs: %v vs %v", a, b)
		}
	}
}

func TestProgressModel(t *testing.T) {
	a := &Attempt{
		State:      AttemptRunning,
		LaunchTime: 10,
		JVMDelay:   5,
		StartFrac:  0.25,
		Intrinsic:  200,
	}
	// JVMReady = 15; full split time = 200; finish = 15 + 200*0.75 = 165.
	if got := a.JVMReady(); got != 15 {
		t.Errorf("JVMReady = %v, want 15", got)
	}
	if got := a.FinishTime(); got != 165 {
		t.Errorf("FinishTime = %v, want 165", got)
	}
	// Before the JVM is ready the attempt reports only the inherited offset.
	if got := a.Progress(12); got != 0.25 {
		t.Errorf("Progress before JVM ready = %v, want 0.25 (inherited)", got)
	}
	if got := a.Progress(15); got != 0.25 {
		t.Errorf("Progress at JVM ready = %v, want 0.25 (inherited)", got)
	}
	// At t=115: 100s of processing /200 = 0.5 of split, plus 0.25 = 0.75.
	if got := a.Progress(115); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("Progress(115) = %v, want 0.75", got)
	}
	if got := a.Progress(1e6); got != 1 {
		t.Errorf("Progress clamps at %v, want 1", got)
	}
	// Own progress excludes the inherited offset: at t=115, own = 2/3.
	if got := a.OwnProgress(115); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("OwnProgress(115) = %v, want 2/3", got)
	}
}

func TestProgressFrozenAfterKill(t *testing.T) {
	a := &Attempt{
		State:      AttemptKilled,
		LaunchTime: 0,
		JVMDelay:   0,
		Intrinsic:  100,
		EndTime:    30,
	}
	if got := a.Progress(1000); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("killed attempt progress = %v, want frozen 0.3", got)
	}
}

func TestChronosEstimatorExact(t *testing.T) {
	a := &Attempt{
		State:      AttemptRunning,
		LaunchTime: 0,
		JVMDelay:   8,
		Intrinsic:  75,
	}
	// True finish = 8 + 75 = 83.
	for _, now := range []float64{10, 30, 60} {
		if got := ChronosEstimator(a, now); math.Abs(got-83) > 1e-9 {
			t.Errorf("ChronosEstimator at %v = %v, want 83", now, got)
		}
	}
	if got := OracleEstimator(a, 10); math.Abs(got-83) > 1e-9 {
		t.Errorf("OracleEstimator = %v, want 83", got)
	}
}

func TestChronosEstimatorExactForResumed(t *testing.T) {
	a := &Attempt{
		State:      AttemptRunning,
		LaunchTime: 40,
		JVMDelay:   5,
		StartFrac:  0.6,
		Intrinsic:  100,
	}
	// Finish = 45 + 100*0.4 = 85.
	for _, now := range []float64{50, 70, 80} {
		if got := ChronosEstimator(a, now); math.Abs(got-85) > 1e-9 {
			t.Errorf("ChronosEstimator(resumed) at %v = %v, want 85", now, got)
		}
	}
}

func TestHadoopEstimatorOverestimatesUnderJVMDelay(t *testing.T) {
	a := &Attempt{
		State:      AttemptRunning,
		LaunchTime: 0,
		JVMDelay:   8,
		Intrinsic:  50,
	}
	// True finish 58. Hadoop divides by a rate dragged down by the JVM
	// delay, so its estimate must strictly exceed the truth.
	for _, now := range []float64{10, 20, 40} {
		h := HadoopEstimator(a, now)
		if h <= a.FinishTime() {
			t.Errorf("HadoopEstimator at %v = %v, want > true %v", now, h, a.FinishTime())
		}
	}
	// With zero JVM delay Hadoop is exact in the linear model.
	a.JVMDelay = 0
	if got := HadoopEstimator(a, 20); math.Abs(got-50) > 1e-9 {
		t.Errorf("HadoopEstimator without JVM delay = %v, want 50", got)
	}
}

func TestEstimatorsBeforeFirstReport(t *testing.T) {
	a := &Attempt{State: AttemptRunning, LaunchTime: 0, JVMDelay: 10, Intrinsic: 50}
	if got := HadoopEstimator(a, 5); !math.IsInf(got, 1) {
		t.Errorf("HadoopEstimator before first report = %v, want +Inf", got)
	}
	if got := ChronosEstimator(a, 5); !math.IsInf(got, 1) {
		t.Errorf("ChronosEstimator before first report = %v, want +Inf", got)
	}
}

func TestEstimatorsOnFinishedAttempt(t *testing.T) {
	a := &Attempt{State: AttemptFinished, EndTime: 42}
	if got := HadoopEstimator(a, 100); got != 42 {
		t.Errorf("HadoopEstimator(finished) = %v, want 42", got)
	}
	if got := ChronosEstimator(a, 100); got != 42 {
		t.Errorf("ChronosEstimator(finished) = %v, want 42", got)
	}
	if got := OracleEstimator(a, 100); got != 42 {
		t.Errorf("OracleEstimator(finished) = %v, want 42", got)
	}
}

func TestAnticipatedResumeFrac(t *testing.T) {
	a := &Attempt{
		State:      AttemptRunning,
		LaunchTime: 0,
		JVMDelay:   10,
		Intrinsic:  200,
	}
	// At now=50: progress = 40/200 = 0.2; rate = 0.2/40 = 0.005/s;
	// extra = 0.005*10 = 0.05; anticipated = 0.25.
	if got := AnticipatedResumeFrac(a, 50); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("AnticipatedResumeFrac = %v, want 0.25", got)
	}
	// Before first report: just the current (zero) progress.
	if got := AnticipatedResumeFrac(a, 5); got != 0 {
		t.Errorf("AnticipatedResumeFrac before report = %v, want 0", got)
	}
}

func TestKillRunningAttempt(t *testing.T) {
	eng, cl, rt := newHarness(t, Config{Seed: 5})
	var job *Job
	j, err := rt.Submit(testSpec(), plainStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	job = j
	ctl := &Controller{rt: rt, job: job}
	eng.Schedule(1, func() {
		a := job.Tasks[0].Attempts[0]
		if !ctl.Kill(a) {
			t.Error("Kill returned false for running attempt")
		}
		if a.State != AttemptKilled {
			t.Errorf("state = %v, want killed", a.State)
		}
		if ctl.Kill(a) {
			t.Error("second Kill returned true")
		}
	})
	eng.Run()
	// The killed task never completes, so the job must not be Done.
	if job.Done {
		t.Error("job completed despite killed-only task")
	}
	if job.doneTasks != 3 {
		t.Errorf("doneTasks = %d, want 3", job.doneTasks)
	}
	// Machine time still accounted for the killed attempt's 1 second.
	a := job.Tasks[0].Attempts[0]
	if got := a.EndTime - a.LaunchTime; math.Abs(got-1) > 1e-9 {
		t.Errorf("killed attempt ran %v, want 1", got)
	}
	_ = cl
}

func TestKillQueuedAttempt(t *testing.T) {
	eng := sim.NewEngine()
	cl, err := cluster.New(eng, cluster.Config{Nodes: 1, SlotsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(eng, cl, Config{Seed: 6})
	spec := testSpec()
	spec.NumTasks = 2 // second task's attempt must queue behind the first
	job, err := rt.Submit(spec, plainStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	ctl := &Controller{rt: rt, job: job}
	eng.Schedule(0.5, func() {
		queued := job.Tasks[1].Attempts[0]
		if queued.State != AttemptQueued {
			t.Fatalf("expected queued attempt, got %v", queued.State)
		}
		if !ctl.Kill(queued) {
			t.Error("Kill(queued) returned false")
		}
	})
	eng.Run()
	// The killed queued attempt never consumed machine time.
	killed := job.Tasks[1].Attempts[0]
	if killed.State != AttemptKilled {
		t.Errorf("state = %v, want killed", killed.State)
	}
	// The cluster must not leak its slot: the first task's attempt finishes
	// and releases; total releases = 2 (one real, one immediate handback).
	if cl.InUse() != 0 {
		t.Errorf("cluster InUse = %d after run, want 0", cl.InUse())
	}
}

// cloneTestStrategy launches 1+extra attempts per task at arrival.
type cloneTestStrategy struct{ extra int }

func (cloneTestStrategy) Name() string { return "clone-test" }

func (s cloneTestStrategy) Start(ctl *Controller) {
	for _, t := range ctl.Job().Tasks {
		for k := 0; k <= s.extra; k++ {
			ctl.Launch(t, 0)
		}
	}
}

func TestTaskDoneAndJobDoneHooks(t *testing.T) {
	eng, _, rt := newHarness(t, Config{Seed: 8})
	var tasksDone int
	var jobDone bool
	strat := hookStrategy{
		onStart: func(ctl *Controller) {
			ctl.OnTaskDone(func(*Task) { tasksDone++ })
			ctl.OnJobDone(func() { jobDone = true })
			for _, t := range ctl.Job().Tasks {
				ctl.Launch(t, 0)
			}
		},
	}
	if _, err := rt.Submit(testSpec(), strat); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if tasksDone != 4 {
		t.Errorf("task-done hook ran %d times, want 4", tasksDone)
	}
	if !jobDone {
		t.Error("job-done hook did not run")
	}
}

type hookStrategy struct {
	onStart func(ctl *Controller)
}

func (hookStrategy) Name() string          { return "hook" }
func (h hookStrategy) Start(c *Controller) { h.onStart(c) }

func TestBestRunningAndMaxProgress(t *testing.T) {
	eng, _, rt := newHarness(t, Config{Seed: 10})
	spec := testSpec()
	spec.NumTasks = 1
	job, err := rt.Submit(spec, cloneTestStrategy{extra: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(5)
	task := job.Tasks[0]
	best, bestEst := task.BestRunning(5, OracleEstimator)
	if best == nil {
		t.Fatal("BestRunning returned nil with 3 running attempts")
	}
	if bestEst != best.FinishTime() {
		t.Errorf("BestRunning returned estimate %v for an attempt finishing at %v", bestEst, best.FinishTime())
	}
	for _, a := range task.Attempts {
		if a.Running() && a.FinishTime() < best.FinishTime() {
			t.Errorf("BestRunning missed the fastest attempt")
		}
	}
}

func TestLaunchBadFracPanics(t *testing.T) {
	eng, _, rt := newHarness(t, Config{})
	job, err := rt.Submit(testSpec(), plainStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(1)
	ctl := &Controller{rt: rt, job: job}
	defer func() {
		if recover() == nil {
			t.Fatal("Launch(frac=1) did not panic")
		}
	}()
	ctl.Launch(job.Tasks[0], 1.0)
}

func TestLaunchDoneTaskPanics(t *testing.T) {
	eng, _, rt := newHarness(t, Config{})
	job, err := rt.Submit(testSpec(), plainStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("Launch of a done task did not panic")
		}
	}()
	job.ctl.Launch(job.Tasks[0], 0)
}

// TestDurationIsFirstFinishedInLaunchOrder: Task.Duration is the run time of
// the lowest-Index finished attempt, the one a scan of Attempts in launch
// order finds first, even when a higher-Index attempt finished earlier.
func TestDurationIsFirstFinishedInLaunchOrder(t *testing.T) {
	eng, _, rt := newHarness(t, Config{Seed: 12})
	spec := testSpec()
	spec.NumTasks = 1
	spec.Dist = pareto.MustNew(10, 1e6) // every attempt runs ≈ 2 + 10 s
	// Attempt 0 processes the whole split and finishes at ≈ 12; attempt 1
	// resumes at 0.5 and finishes first, at ≈ 7.
	job, err := rt.Submit(spec, hookStrategy{onStart: func(ctl *Controller) {
		ctl.Launch(ctl.Job().Tasks[0], 0)
		ctl.Launch(ctl.Job().Tasks[0], 0.5)
	}})
	if err != nil {
		t.Fatal(err)
	}
	task := job.Tasks[0]
	eng.RunUntil(1)
	orig, resumed := task.Attempts[0], task.Attempts[1]
	eng.RunUntil(10)
	if resumed.State != AttemptFinished || orig.State != AttemptRunning {
		t.Fatalf("setup at 10: attempts %v, %v, want running, finished", orig.State, resumed.State)
	}
	if want := resumed.EndTime - resumed.LaunchTime; task.Duration != want {
		t.Errorf("Duration after attempt 1 finished = %v, want its run time %v", task.Duration, want)
	}
	eng.Run()
	if want := orig.EndTime - orig.LaunchTime; orig.State != AttemptFinished || task.Duration != want {
		t.Errorf("Duration after attempt 0 finished = %v, want its run time %v", task.Duration, want)
	}

	// Over many tasks with three unkilled copies each, Duration is what the
	// launch-order scan finds.
	eng, _, rt = newHarness(t, Config{Seed: 13})
	spec = testSpec()
	spec.NumTasks = 40
	job, err = rt.Submit(spec, cloneTestStrategy{extra: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	for _, task := range job.Tasks {
		for _, a := range task.Attempts {
			if a.State == AttemptFinished {
				if want := a.EndTime - a.LaunchTime; task.Duration != want {
					t.Errorf("task %d Duration %v, want attempt %d's %v", task.ID, task.Duration, a.Index, want)
				}
				break
			}
		}
	}
}

func TestJVMModelSample(t *testing.T) {
	rng := pareto.NewStream(1)
	constant := JVMModel{Min: 3, Max: 3}
	if got := constant.Sample(rng); got != 3 {
		t.Errorf("constant JVM sample = %v, want 3", got)
	}
	ranged := JVMModel{Min: 2, Max: 4}
	for i := 0; i < 1000; i++ {
		if got := ranged.Sample(rng); got < 2 || got >= 4 {
			t.Fatalf("ranged JVM sample = %v outside [2, 4)", got)
		}
	}
}

func TestAttemptStateString(t *testing.T) {
	states := map[AttemptState]string{
		AttemptQueued:   "queued",
		AttemptRunning:  "running",
		AttemptFinished: "finished",
		AttemptKilled:   "killed",
		AttemptState(0): "unknown",
	}
	for s, want := range states {
		if got := s.String(); got != want {
			t.Errorf("state %d String() = %q, want %q", s, got, want)
		}
	}
}

// lateControl launches every task and leaves a control point far past the
// job's end, as the Chronos strategies' tauKill is for a job that finishes
// early.
type lateControl struct {
	at  float64
	ran *int
}

func (lateControl) Name() string { return "late-control" }

func (s lateControl) Start(ctl *Controller) {
	tasks := ctl.Job().Tasks
	for _, t := range tasks {
		ctl.Launch(t, 0)
	}
	ctl.After(s.at, func() {
		*s.ran++
		for _, t := range tasks {
			for _, a := range t.Attempts {
				ctl.Kill(a)
			}
		}
	})
}

// TestDiscardJobsRecyclesSettledJobs: the runtime retains no job. A settled
// job's tasks and attempts go back to the runtime and serve the next job, and
// the settled job's own late control point — whose closure still holds those
// tasks — does not run, so it cannot kill the next job's attempts.
func TestDiscardJobsRecyclesSettledJobs(t *testing.T) {
	eng, _, rt := newHarness(t, Config{Seed: 4})
	settled := 0
	rt.OnJobSettled = func(*Job) { settled++ }

	ran := 0
	first, err := rt.Submit(testSpec(), lateControl{at: 5000, ran: &ran})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(4000)
	if settled != 1 {
		t.Fatal("first job not settled by t=4000")
	}
	firstTasks := slices.Clone(first.Tasks)

	// The second job is still running when the first one's control point
	// comes due at t=5000.
	spec := testSpec()
	spec.ID, spec.Arrival = 2, 4995
	second, err := rt.Submit(spec, plainStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	reused := 0
	for _, task := range second.Tasks {
		if slices.Contains(firstTasks, task) {
			reused++
		}
	}
	eng.Run()

	if reused != len(second.Tasks) || first.Tasks != nil {
		t.Errorf("%d of %d tasks reused, first.Tasks = %v; want all reused and nil", reused, len(second.Tasks), first.Tasks)
	}
	if ran != 0 {
		t.Errorf("the settled job's control point ran %d times over recycled tasks", ran)
	}
	if settled != 2 || !second.MetDeadline() {
		t.Errorf("second job settled=%v met=%v finish=%v; its attempts were disturbed",
			settled == 2, second.MetDeadline(), second.FinishTime)
	}
	for _, task := range second.Tasks {
		if len(task.Attempts) != 1 || task.Attempts[0].State != AttemptFinished {
			t.Errorf("second job's task %d has attempts %v, want one that finished", task.ID, task.Attempts)
		}
	}
}
