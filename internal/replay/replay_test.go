package replay_test

// The replay core is exercised through the public chronos.Replay surface —
// the same entry point the CLIs and chronosd use — so these tests double as
// API-contract tests for the streaming layer.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"chronos"
	"chronos/internal/race"
)

func testJobs(n int) []chronos.SimJob {
	jobs := make([]chronos.SimJob, n)
	for i := range jobs {
		jobs[i] = chronos.SimJob{
			Tasks:    4 + i%3,
			Deadline: 300,
			TMin:     10,
			Beta:     1.5,
			Arrival:  float64(i) * 40,
		}
	}
	return jobs
}

func testConfig() chronos.SimConfig {
	return chronos.SimConfig{
		Strategy:     chronos.SpeculativeResume,
		Seed:         42,
		Nodes:        16,
		SlotsPerNode: 8,
	}
}

// collect replays the stream and returns the marshaled NDJSON bytes plus
// the decoded events.
func collect(t *testing.T, cfg chronos.SimConfig, jobs []chronos.SimJob, window float64) ([]byte, []chronos.ReplayEvent, chronos.Report) {
	t.Helper()
	var buf bytes.Buffer
	var events []chronos.ReplayEvent
	rep, err := chronos.Replay(context.Background(), cfg, jobs, chronos.ReplayOptions{
		WindowSeconds: window,
		Observer: chronos.ReplayObserverFunc(func(ev *chronos.ReplayEvent) error {
			line, err := json.Marshal(ev)
			if err != nil {
				return err
			}
			buf.Write(line)
			buf.WriteByte('\n')
			events = append(events, *ev)
			return nil
		}),
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return buf.Bytes(), events, rep
}

func TestEventStreamDeterminism(t *testing.T) {
	jobs := testJobs(12)
	cfg := testConfig()
	a, _, _ := collect(t, cfg, jobs, 120)
	b, _, _ := collect(t, cfg, jobs, 120)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different event streams")
	}
	cfg.Seed++
	c, _, _ := collect(t, cfg, jobs, 120)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical event streams")
	}
}

func TestEventStreamShape(t *testing.T) {
	jobs := testJobs(12)
	_, events, rep := collect(t, testConfig(), jobs, 120)

	var planned, completed, windows, summaries int
	lastTime := math.Inf(-1)
	for i, ev := range events {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Time < lastTime {
			t.Fatalf("event %d time %v precedes %v", i, ev.Time, lastTime)
		}
		lastTime = ev.Time
		switch ev.Kind {
		case chronos.EventJobPlanned:
			planned++
			if ev.Job == nil || ev.Job.R == nil {
				t.Fatalf("job_planned %d missing job or plan: %+v", i, ev)
			}
		case chronos.EventJobCompleted:
			completed++
			if ev.Job == nil || ev.Outcome == nil || ev.PoCD == nil {
				t.Fatalf("job_completed %d missing payload: %+v", i, ev)
			}
			if ev.Outcome.MachineTime <= 0 {
				t.Fatalf("job_completed %d machine time %v", i, ev.Outcome.MachineTime)
			}
			wantLate := ev.Outcome.Finish - (ev.Job.Arrival + ev.Job.Deadline)
			if math.Abs(ev.Outcome.Lateness-wantLate) > 1e-9 {
				t.Fatalf("job_completed %d lateness %v, want %v", i, ev.Outcome.Lateness, wantLate)
			}
		case chronos.EventWindowSummary:
			windows++
			if ev.Window == nil || ev.Window.End <= ev.Window.Start {
				t.Fatalf("bad window %+v", ev.Window)
			}
		case chronos.EventReplaySummary:
			summaries++
			if i != len(events)-1 {
				t.Fatalf("replay_summary at %d of %d", i, len(events))
			}
			if ev.Summary == nil || ev.Summary.Jobs != len(jobs) {
				t.Fatalf("bad final summary %+v", ev.Summary)
			}
		default:
			t.Fatalf("unexpected kind %q", ev.Kind)
		}
	}
	if planned != len(jobs) || completed != len(jobs) {
		t.Fatalf("planned %d / completed %d events, want %d each", planned, completed, len(jobs))
	}
	if windows == 0 {
		t.Fatal("no window summaries emitted")
	}
	if summaries != 1 {
		t.Fatalf("%d replay_summary events", summaries)
	}
	if rep.Jobs != len(jobs) {
		t.Fatalf("report jobs %d", rep.Jobs)
	}
}

// TestFoldMatchesSimulate pins the tentpole contract: the one-shot Simulate
// is exactly the fold of the event stream.
func TestFoldMatchesSimulate(t *testing.T) {
	jobs := testJobs(15)
	cfg := testConfig()
	_, events, streamed := collect(t, cfg, jobs, 0)
	direct, err := chronos.Simulate(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Jobs != direct.Jobs || streamed.PoCD != direct.PoCD ||
		streamed.MeanMachineTime != direct.MeanMachineTime ||
		streamed.MeanCost != direct.MeanCost || streamed.Utility != direct.Utility {
		t.Fatalf("streamed report %+v != direct %+v", streamed, direct)
	}
	if len(streamed.RHistogram) != len(direct.RHistogram) {
		t.Fatalf("histograms differ: %v vs %v", streamed.RHistogram, direct.RHistogram)
	}
	for k, v := range direct.RHistogram {
		if streamed.RHistogram[k] != v {
			t.Fatalf("histograms differ at %d: %v vs %v", k, streamed.RHistogram, direct.RHistogram)
		}
	}
	// And the final stream event carries the same aggregates.
	final := events[len(events)-1]
	if final.Kind != chronos.EventReplaySummary {
		t.Fatalf("last event %q", final.Kind)
	}
	if final.Summary.MeanCost != direct.MeanCost || final.Summary.PoCD != direct.PoCD {
		t.Fatalf("summary event %+v != direct report %+v", final.Summary, direct)
	}
}

func TestObserverAbort(t *testing.T) {
	boom := errors.New("boom")
	n := 0
	_, err := chronos.Replay(context.Background(), testConfig(), testJobs(10), chronos.ReplayOptions{
		Observer: chronos.ReplayObserverFunc(func(*chronos.ReplayEvent) error {
			n++
			if n == 3 {
				return boom
			}
			return nil
		}),
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n != 3 {
		t.Fatalf("observer saw %d events after abort", n)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	_, err := chronos.Replay(ctx, testConfig(), testJobs(10), chronos.ReplayOptions{
		Observer: chronos.ReplayObserverFunc(func(*chronos.ReplayEvent) error {
			n++
			if n == 2 {
				cancel() // simulate a client vanishing mid-stream
			}
			return nil
		}),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n >= 20 {
		t.Fatalf("replay kept emitting %d events after cancellation", n)
	}
}

func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := chronos.Replay(ctx, testConfig(), testJobs(3), chronos.ReplayOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestEmptyStream(t *testing.T) {
	if _, err := chronos.Replay(context.Background(), testConfig(), nil, chronos.ReplayOptions{}); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestOutOfOrderArrivals(t *testing.T) {
	jobs := testJobs(8)
	// Shuffle arrivals out of stream order; the engine must still replay by
	// arrival time.
	jobs[0].Arrival, jobs[5].Arrival = jobs[5].Arrival, jobs[0].Arrival
	_, events, rep := collect(t, testConfig(), jobs, 0)
	if rep.Jobs != len(jobs) {
		t.Fatalf("jobs %d", rep.Jobs)
	}
	last := math.Inf(-1)
	for _, ev := range events {
		if ev.Kind == chronos.EventJobPlanned {
			if ev.Job.Arrival < last {
				t.Fatalf("job %d planned out of arrival order", ev.Job.ID)
			}
			last = ev.Job.Arrival
		}
	}
}

func TestMaxOpenTasksAborts(t *testing.T) {
	// Every job arrives at t=0: in-flight tasks hit 5*6=30 immediately,
	// beyond the 20-task cap, so the replay must refuse to materialize
	// the stream rather than allocate it wholesale.
	jobs := make([]chronos.SimJob, 5)
	for i := range jobs {
		jobs[i] = chronos.SimJob{Tasks: 6, Deadline: 300, TMin: 10, Beta: 1.5}
	}
	_, err := chronos.Replay(context.Background(), testConfig(), jobs, chronos.ReplayOptions{
		MaxOpenTasks: 20,
	})
	if err == nil {
		t.Fatal("coincident arrivals over the open-task cap were accepted")
	}
	// The same stream spread out stays under the cap and completes.
	for i := range jobs {
		jobs[i].Arrival = float64(i) * 1000
	}
	rep, err := chronos.Replay(context.Background(), testConfig(), jobs, chronos.ReplayOptions{
		MaxOpenTasks: 20,
	})
	if err != nil {
		t.Fatalf("spread stream rejected: %v", err)
	}
	if rep.Jobs != len(jobs) {
		t.Fatalf("jobs %d", rep.Jobs)
	}
}

func TestReduceStageEvents(t *testing.T) {
	jobs := []chronos.SimJob{
		{Tasks: 6, Deadline: 400, TMin: 10, Beta: 1.5, ReduceTasks: 3},
	}
	_, events, _ := collect(t, testConfig(), jobs, 0)
	done := events[len(events)-2] // last job_completed precedes the summary
	if done.Kind != chronos.EventJobCompleted {
		t.Fatalf("penultimate event %q", done.Kind)
	}
	if done.Job.ReduceTasks != 3 || done.Job.ReduceR == nil {
		t.Fatalf("reduce stage not reflected: %+v", done.Job)
	}
}

// TestReplayAllocsPerJob pins what the per-event rebuild bought: tasks,
// attempts, events, containers and queued requests are all pooled, so a
// replay allocates per job — the Job, its plan, its control points, its two
// stream events — and no longer per attempt. On this trace a job averages
// some 300 tasks; before the rebuild a replay cost 5,000 to 11,000
// allocations per job.
func TestReplayAllocsPerJob(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc counts only hold without -race")
	}
	jobs, err := chronos.SyntheticTrace(chronos.TraceConfig{Jobs: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []chronos.Strategy{chronos.Clone, chronos.SpeculativeRestart, chronos.SpeculativeResume} {
		cfg := chronos.SimConfig{Strategy: s, Seed: 3}
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := chronos.Replay(context.Background(), cfg, jobs, chronos.ReplayOptions{}); err != nil {
				t.Fatal(err)
			}
		})
		if perJob := allocs / float64(len(jobs)); perJob > 100 {
			t.Errorf("%v: %.0f allocs per job, want at most 100", s, perJob)
		} else {
			t.Logf("%v: %.0f allocs per job", s, perJob)
		}
	}
}

// TestReplayAllocBytesPerJob pins the bytes a warm replay allocates per job
// on the same trace: the engine and cluster a replay recycles keep their
// grown queues, and a reclaimed job's Tasks slice is handed to a later job,
// so what is left is the runtime's task and attempt records and the per-job
// plan and events. Each strategy replays once to warm the pool before the
// measured run. The ceilings are some 13 % above the 33.7, 22.3 and 13.2 KB
// measured; before the recycling a replay allocated 47.5, 32.6 and 22.9 KB
// per job here.
//
// The warm and the measured replay run on one P with the collector off, so
// the measured one gets what the warm one put back: a sync.Pool Get never
// takes another P's private slot, and a GC cycle between the two empties
// the pool, either of which would measure the cold figure instead.
func TestReplayAllocBytesPerJob(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc counts only hold without -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	jobs, err := chronos.SyntheticTrace(chronos.TraceConfig{Jobs: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		s       chronos.Strategy
		ceiling float64
	}{{chronos.Clone, 38_000}, {chronos.SpeculativeRestart, 25_000}, {chronos.SpeculativeResume, 15_000}} {
		cfg := chronos.SimConfig{Strategy: c.s, Seed: 3}
		replay := func() {
			if _, err := chronos.Replay(context.Background(), cfg, jobs, chronos.ReplayOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		replay()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		replay()
		runtime.ReadMemStats(&after)
		if perJob := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(jobs)); perJob > c.ceiling {
			t.Errorf("%v: %.0f B per job, want at most %.0f", c.s, perJob, c.ceiling)
		} else {
			t.Logf("%v: %.0f B per job", c.s, perJob)
		}
	}
}
