// Example chronosd_client starts an in-process chronosd instance and
// drives every endpoint through the importable chronos/client package, the
// way a cluster scheduler would: a single-job plan (twice, showing the
// cache hit), a shared-budget batch, a tradeoff curve, and a what-if
// simulation replayed as a stream, finishing with the server's own
// Prometheus metrics. Against a sharded fleet the same code routes
// plan-keyed requests straight to the owning replica — build the client
// with NewFleet and the replicas' -self URLs instead of New.
//
// Run with:
//
//	go run ./examples/chronosd_client
package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"strings"

	"chronos"
	"chronos/client"
	"chronos/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "chronosd_client:", err)
		os.Exit(1)
	}
}

func run() error {
	// Boot chronosd on an ephemeral local port.
	srv := server.New(server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()

	c := client.New("http://" + ln.Addr().String())
	fmt.Println("chronosd serving on", c.Replicas()[0])

	job := chronos.JobParams{
		Tasks: 10, Deadline: 100, TMin: 10, Beta: 1.5,
		TauEst: 30, TauKill: 60,
	}
	econ := chronos.Econ{Theta: 1e-4, UnitPrice: 1}

	// 1) Single-job planning — the scheduler's per-arrival hot path. The
	// second identical request is served from the sharded plan cache.
	fmt.Println("\n--- client.Plan (cold, then cached) ---")
	for i := 0; i < 2; i++ {
		plan, err := c.Plan(ctx, client.PlanRequest{Job: job, Econ: econ})
		if err != nil {
			return err
		}
		fmt.Printf("strategy=%v r=%d pocd=%.4f machineTime=%.1f cached=%v\n",
			plan.Plan.Strategy, plan.Plan.R, plan.Plan.PoCD,
			plan.Plan.MachineTime, plan.Cached)
	}

	// 2) Shared-budget batch: four concurrent jobs, one machine-time
	// budget; strategies picked per job, then the budget split greedily.
	fmt.Println("\n--- client.PlanBatch ---")
	batch, err := c.PlanBatch(ctx, client.BatchRequest{
		Jobs: []client.BatchJob{
			{Job: job},
			{Job: job, Strategy: "clone"},
			{Job: job, RMin: 0.5},
			{Job: job, Strategy: "s-resume"},
		},
		Budget: 5000,
		Econ:   econ,
	})
	if err != nil {
		return err
	}
	for i, p := range batch.Plans {
		fmt.Printf("job %d: strategy=%v r=%d pocd=%.4f machineTime=%.1f\n",
			i, p.Strategy, p.R, p.PoCD, p.MachineTime)
	}
	fmt.Printf("total machine time %.1f of budget %.1f\n",
		batch.TotalMachineTime, batch.Budget)

	// 3) The PoCD/cost frontier for Clone, r = 0..5.
	fmt.Println("\n--- client.Tradeoff ---")
	curve, err := c.Tradeoff(ctx, "clone", job, econ, 5)
	if err != nil {
		return err
	}
	for _, pt := range curve.Points {
		fmt.Printf("r=%d pocd=%.4f cost=%.1f\n", pt.R, pt.PoCD, pt.Cost)
	}

	// 4) A what-if simulation of the same job class: the replay stream's
	// final replay_summary carries the run's aggregate report.
	fmt.Println("\n--- client.Replay ---")
	sum, err := c.Replay(ctx, client.ReplayRequest{
		Config: chronos.SimConfig{
			Strategy: chronos.SpeculativeResume, Seed: 7,
			TauEst: 40, TauKill: 80, TauScale: 1,
		},
		Jobs: []chronos.SimJob{
			{Tasks: 10, Deadline: 100, TMin: 10, Beta: 1.5},
			{Tasks: 10, Deadline: 100, TMin: 10, Beta: 1.5, Arrival: 50},
		},
	}, nil)
	if err != nil {
		return err
	}
	fmt.Printf("jobs=%d pocd=%.3f meanMachineTime=%.1f meanCost=%.1f\n",
		sum.Jobs, sum.PoCD, sum.MeanMachineTime, sum.MeanCost)

	// 5) The serving metrics, filtered to the cache and plan counters.
	fmt.Println("\n--- client.Metrics (excerpt) ---")
	metricsText, err := c.Metrics(ctx)
	if err != nil {
		return err
	}
	for _, line := range strings.Split(metricsText, "\n") {
		if strings.HasPrefix(line, "chronosd_plan") {
			fmt.Println(line)
		}
	}

	cancel()
	return <-done
}
