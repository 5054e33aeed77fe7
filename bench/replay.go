package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"chronos"
)

// replayLimit bounds one stream; chronosd lifts its own write timeout for
// replays, so a hung simulation would otherwise hang the run.
const replayLimit = 120 * time.Second

// fidelityStreams is how many streams, from the first, the model-fidelity
// metrics average over: a fixed count, so that they repeat exactly for a
// seed however many streams a run has time for.
const fidelityStreams = 6

// replayResult is what the client saw of one /v1/replay stream.
type replayResult struct {
	spec       replaySpec
	start      time.Duration // since the phase began
	wall       time.Duration // request written to last line read
	firstEvent time.Duration // request written to first line read
	bytes      int
	lines      int
	settled    int
	r          []int // r per job id, from job_planned
	summary    *chronos.ReplaySummary
	after      usage // the server's cumulative CPU ticks when the stream ended, and its peak RSS during it
	refOps     int   // the yardstick burst that followed the stream
	refBusy    time.Duration
	err        error // first violated check
}

// runReplay streams one replay over c, reading and parsing every line.
func runReplay(c *conn, spec replaySpec, phaseStart time.Time) replayResult {
	res := replayResult{spec: spec, r: make([]int, spec.jobs)}
	for i := range res.r {
		res.r[i] = -1
	}
	req := buildRequest(nil, "POST", "/v1/replay", spec.body())
	fail := func(err error) {
		if res.err == nil {
			res.err = err
		}
	}
	planned := 0
	t0 := time.Now()
	res.start = t0.Sub(phaseStart)
	status, err := c.stream(req, replayLimit, func(line []byte) error {
		if res.lines == 0 {
			res.firstEvent = time.Since(t0)
		}
		res.bytes += len(line) + 1
		var ev chronos.ReplayEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			fail(fmt.Errorf("line %d %q: %w", res.lines, line, err))
			res.lines++
			return nil
		}
		if ev.Seq != uint64(res.lines) {
			fail(fmt.Errorf("line %d carries seq %d: the sequence has a gap", res.lines, ev.Seq))
		}
		res.lines++
		switch ev.Kind {
		case chronos.EventJobPlanned:
			if ev.Job == nil || ev.Job.R == nil || ev.Job.ID < 0 || ev.Job.ID >= len(res.r) {
				fail(fmt.Errorf("job_planned without a usable job id and r: %s", line))
				break
			}
			res.r[ev.Job.ID] = *ev.Job.R
			planned++
		case chronos.EventJobCompleted:
			res.settled++
		case chronos.EventReplaySummary:
			res.summary = ev.Summary
		default:
			fail(fmt.Errorf("unexpected %s event: %s", ev.Kind, line))
		}
		return nil
	})
	res.wall = time.Since(t0)
	switch {
	case err != nil:
		fail(err)
	case status != 200:
		fail(fmt.Errorf("status %d", status))
	case res.summary == nil:
		fail(fmt.Errorf("stream ended after %d lines without a replay_summary", res.lines))
	case planned != spec.jobs || res.settled != spec.jobs || res.summary.Jobs != spec.jobs:
		fail(fmt.Errorf("planned %d, settled %d, summary says %d jobs; want %d of each",
			planned, res.settled, res.summary.Jobs, spec.jobs))
	}
	return res
}

// fidelity is the paper's central claim as two numbers: how far the PoCD and
// the machine time the closed-form models predict for the plans the replay
// chose are from what the simulated cluster delivered.
func (res *replayResult) fidelity() (pocdAbsErr, costRelErr float64, err error) {
	jobs, err := chronos.SyntheticTrace(res.spec.traceConfig())
	if err != nil {
		return 0, 0, err
	}
	if len(jobs) != len(res.r) {
		return 0, 0, fmt.Errorf("regenerated trace has %d jobs, the stream planned %d", len(jobs), len(res.r))
	}
	var pocd, mt float64
	for id, j := range jobs {
		p, err := chronos.PoCD(res.spec.strategy, jobParams(j), res.r[id])
		if err != nil {
			return 0, 0, err
		}
		m, err := chronos.ExpectedMachineTime(res.spec.strategy, jobParams(j), res.r[id])
		if err != nil {
			return 0, 0, err
		}
		pocd += p
		mt += m
	}
	n := float64(len(jobs))
	return math.Abs(pocd/n - res.summary.PoCD),
		math.Abs(mt/n-res.summary.MeanMachineTime) / res.summary.MeanMachineTime, nil
}

// replayYardstickBurst is the reference server's turn after every stream of
// a measured phase; a stream takes about six times as long.
const replayYardstickBurst = 100 * time.Millisecond

// replayLoop runs streams one after another, numbered from first, until d
// has passed and at least min have run, always ending on a whole rotation of
// the strategies. With a yardstick, each stream is followed by a burst of
// it.
func replayLoop(fl *fleet, y *yardstick, seed uint64, first, min int, d time.Duration) ([]replayResult, time.Duration, error) {
	addr := fl.addrs[0]
	c, err := dial(addr)
	if err != nil {
		return nil, 0, err
	}
	defer func() { c.close() }()
	var out []replayResult
	start := time.Now()
	for k := first; len(out) < min || len(out)%len(replayStrategies) != 0 || time.Since(start) < d; k++ {
		res := runReplay(c, replayStream(seed, k), start)
		if res.after, err = fl.sample(); err != nil {
			return out, time.Since(start), err
		}
		if y != nil {
			if res.refOps, res.refBusy, err = y.burst(replayYardstickBurst); err != nil {
				return out, time.Since(start), err
			}
		}
		out = append(out, res)
		if res.err != nil {
			// The connection's state is unknown after a broken stream.
			c.close()
			if c, err = dial(addr); err != nil {
				return out, time.Since(start), err
			}
		}
	}
	return out, time.Since(start), nil
}

// replayWindows cuts a run of streams into rotations of the strategies: the
// slices replay_stream's gated metrics are medians over. A latency sample is
// a whole stream. A rotation's p50 is the mean of its three streams, one per
// strategy, and not the middle one: Clone takes twice as long as the other
// two, which take about as long as each other, so the middle one is whichever
// of those two drew the heavier trace. Its p99 is its slowest stream. before
// is the server's CPU reading when the first stream began.
func replayWindows(streams []replayResult, before uint64) []window {
	n := len(replayStrategies)
	var out []window
	for lo := 0; lo+n <= len(streams); lo += n {
		w := window{n: n, ticks: streams[lo+n-1].after.cpuTicks - before}
		before = streams[lo+n-1].after.cpuTicks
		refOps, refBusy := 0, time.Duration(0)
		for _, r := range streams[lo : lo+n] {
			w.busy += r.wall
			w.ops += r.settled
			w.p99 = max(w.p99, int64(r.wall))
			w.rssKB = max(w.rssKB, r.after.peakRSSkB)
			refOps += r.refOps
			refBusy += r.refBusy
		}
		w.p50 = int64(w.busy) / int64(n)
		w.speed = hostSpeed(refOps, refBusy)
		w.tail = w.speed // a sample is a whole stream: work, like the rate
		out = append(out, w)
	}
	return out
}
