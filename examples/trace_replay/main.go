// trace_replay: a large-scale, trace-driven comparison over the streaming
// replay endpoint.
//
// This example mirrors the paper's Section VII-B evaluation — a
// Google-trace-like stream of MapReduce jobs replayed under every strategy —
// but instead of calling the in-process library it drives a live chronosd
// through the chronos/client package: it boots the daemon on a loopback
// port, asks client.Replay to generate the trace server-side, and consumes
// the NDJSON event stream (job_planned, job_completed, window_summary,
// replay_summary) as the simulation runs.
//
// Run with:
//
//	go run ./examples/trace_replay
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"sort"

	"chronos"
	"chronos/client"
	"chronos/internal/server"
)

const (
	traceJobs    = 150
	traceHorizon = 2 * 3600
	traceSeed    = 7
)

func main() {
	// A live chronosd on a loopback port: the same daemon `cmd/chronosd`
	// runs in production.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	srv := server.New(server.Config{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	c := client.New("http://" + ln.Addr().String())

	order := []chronos.Strategy{
		chronos.HadoopNS, chronos.HadoopS, chronos.Mantri,
		chronos.Clone, chronos.SpeculativeRestart, chronos.SpeculativeResume,
	}
	fmt.Printf("replaying a %d-job generated trace over %s/v1/replay\n\n",
		traceJobs, c.Replicas()[0])

	results := make(map[chronos.Strategy]*chronos.ReplaySummary)
	for _, s := range order {
		sum, err := replayOnce(ctx, c, s)
		if err != nil {
			log.Fatal(err)
		}
		results[s] = sum
	}

	fmt.Printf("\n%-22s %-8s %-12s %-8s\n", "strategy", "PoCD", "mean cost", "jobs")
	for _, s := range order {
		sum := results[s]
		fmt.Printf("%-22s %-8.3f %-12.1f %-8d\n", s, sum.PoCD, sum.MeanCost, sum.Jobs)
	}

	// The distribution of optimizer-chosen r for the work-preserving
	// strategy (the Figure 5 view), read off the final stream event.
	resume := results[chronos.SpeculativeResume]
	var rs []int
	for r := range resume.RHistogram {
		rs = append(rs, r)
	}
	sort.Ints(rs)
	fmt.Println("\nSpeculative-Resume optimal-r distribution:")
	for _, r := range rs {
		fmt.Printf("  r=%d: %d jobs\n", r, resume.RHistogram[r])
	}

	stop()
	if err := <-done; err != nil {
		log.Fatal(err)
	}
}

// replayOnce streams one strategy's replay and returns its final summary.
// The trace is generated server-side — nothing is uploaded but the config.
func replayOnce(ctx context.Context, c *client.Client, s chronos.Strategy) (*chronos.ReplaySummary, error) {
	fmt.Printf("%v:\n", s)
	return c.Replay(ctx, client.ReplayRequest{
		Config: chronos.SimConfig{
			Strategy: s,
			Seed:     traceSeed, // common random numbers across strategies
			Econ:     chronos.Econ{Theta: 1e-4, UnitPrice: 1},
			// Ample capacity, as in the paper's trace-driven simulator.
			Nodes:        2048,
			SlotsPerNode: 8,
		},
		Trace: &client.ReplayTrace{
			Jobs:           traceJobs,
			HorizonSeconds: traceHorizon,
			DeadlineRatio:  2,
			Seed:           traceSeed,
		},
		WindowSeconds: 1800,
	}, func(ev *chronos.ReplayEvent) error {
		if ev.Kind == chronos.EventWindowSummary {
			w := ev.Window
			fmt.Printf("  t=%6.0fs  +%3d jobs  %3d/%3d done  running PoCD %.3f\n",
				w.End, w.Completed, w.Running.Jobs, w.Running.Submitted, w.Running.PoCD)
		}
		return nil
	})
}
