package chronos

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"chronos/internal/mapreduce"
	"chronos/internal/race"
	"chronos/internal/replay"
)

// recycleJobs is a stream that keeps a small cluster's queue full: 40 jobs of
// 4–10 tasks, one every 5 s.
func recycleJobs() []SimJob {
	jobs := make([]SimJob, 40)
	for i := range jobs {
		jobs[i] = SimJob{Tasks: 4 + i%7, Deadline: 120, TMin: 10, Beta: 1.5, Arrival: 5 * float64(i)}
	}
	return jobs
}

// replayLines replays jobs and returns the report and every event as its
// JSON line. After stop events the observer cancels ctx (stop > 0) or fails
// (stop < 0); stop 0 lets the replay finish.
func replayLines(cfg SimConfig, jobs []SimJob, stop int) (Report, []string, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var lines []string
	rep, err := Replay(ctx, cfg, jobs, ReplayOptions{
		WindowSeconds: 30,
		Observer: ReplayObserverFunc(func(ev *ReplayEvent) error {
			line, err := json.Marshal(ev)
			if err != nil {
				return err
			}
			lines = append(lines, string(line))
			switch {
			case stop > 0 && len(lines) == stop:
				cancel()
			case stop < 0 && len(lines) == -stop:
				return errAbortReplay
			}
			return nil
		}),
	})
	return rep, lines, err
}

var errAbortReplay = errors.New("observer abort")

// stall is a strategy that never launches an attempt, so its job never
// settles.
type stall struct{}

func (stall) Name() string                { return "stall" }
func (stall) Start(*mapreduce.Controller) {}

// TestRecycledSimulatorIsInvisible replays a stream, then leaves the pooled
// engine and cluster in every state a replay can end in — cancelled through
// its context mid-stream, aborted by its observer, stalled, and sized for a
// different cluster — and replays the first stream again: its report and
// every event must equal the first run's.
func TestRecycledSimulatorIsInvisible(t *testing.T) {
	jobs := recycleJobs()
	first := SimConfig{Strategy: Clone, Seed: 9, Nodes: 4, SlotsPerNode: 4}
	small := SimConfig{Strategy: SpeculativeResume, Seed: 5, Nodes: 2, SlotsPerNode: 2}

	want, wantLines, err := replayLines(first, jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, lines, err := replayLines(small, jobs, 20); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled replay: %v after %d events", err, len(lines))
	}
	if _, _, err := replayLines(small, jobs, -25); !errors.Is(err, errAbortReplay) {
		t.Fatalf("aborted replay: %v", err)
	}

	rt, rjobs, release, err := buildReplay(small.withDefaults(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rjobs[:5] {
		rjobs[i].Strategy = stall{}
	}
	_, err = replay.Run(context.Background(), rt, rjobs, replay.Config{}, nil)
	release()
	if err == nil || !strings.Contains(err.Error(), "stream stalled") {
		t.Fatalf("stalling replay: %v", err)
	}

	if _, _, err := replayLines(SimConfig{Strategy: SpeculativeRestart, Seed: 9, Nodes: 64, SlotsPerNode: 2}, jobs, 0); err != nil {
		t.Fatal(err)
	}
	if !race.Enabled { // the race detector makes the pool drop objects at random
		s := simulators.Get().(*simulator)
		if s.eng == nil {
			t.Error("the pool holds no used simulator: replays are not recycling")
		}
		simulators.Put(s)
	}

	got, gotLines, err := replayLines(first, jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report after recycling %+v, first run %+v", got, want)
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d events after recycling, %d in the first run", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("event %d after recycling:\n%s\nfirst run:\n%s", i, gotLines[i], wantLines[i])
		}
	}
}

// TestParallelReplaysShareNothing runs replays of four configurations on
// concurrent goroutines, each several times, and holds every result to a
// sequential run of its configuration; under -race it also checks that
// pooled simulators never pass between goroutines while in use.
func TestParallelReplaysShareNothing(t *testing.T) {
	jobs := recycleJobs()
	if race.Enabled {
		jobs = jobs[:15]
	}
	cfgs := []SimConfig{
		{Strategy: Clone, Seed: 1, Nodes: 4, SlotsPerNode: 4},
		{Strategy: SpeculativeRestart, Seed: 2, Nodes: 2, SlotsPerNode: 3},
		{Strategy: SpeculativeResume, Seed: 3, Nodes: 8, SlotsPerNode: 8},
		{Strategy: HadoopS, Seed: 4, Nodes: 3, SlotsPerNode: 2},
	}
	wantReps := make([]Report, len(cfgs))
	wantLines := make([][]string, len(cfgs))
	for i, cfg := range cfgs {
		var err error
		if wantReps[i], wantLines[i], err = replayLines(cfg, jobs, 0); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(cfgs))
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				rep, lines, err := replayLines(cfg, jobs, 0)
				switch {
				case err != nil:
					errs <- err
				case !reflect.DeepEqual(rep, wantReps[i]) || !reflect.DeepEqual(lines, wantLines[i]):
					errs <- fmt.Errorf("%v round %d: a parallel replay differs from the sequential one", cfg.Strategy, round)
				default:
					continue
				}
				return
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
