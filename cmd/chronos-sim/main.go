// Command chronos-sim runs a trace-driven simulation of a strategy on a
// synthetic Google-like job stream and reports PoCD, cost, and utility —
// the scaled-up counterpart of the paper's 30-hour, 2700-job evaluation.
//
// The run streams: window summaries print as the replay progresses (the
// incremental event core, not a one-shot batch), and -events switches the
// output to the raw NDJSON event stream (job_planned, job_completed,
// window_summary, replay_summary) that chronosd's POST /v1/replay serves.
//
// Usage:
//
//	chronos-sim -strategy resume -jobs 270 -horizon 10800 -theta 1e-4 [-seed 1]
//	chronos-sim -strategy all    -jobs 270
//	chronos-sim -strategy resume -events | jq .
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"chronos"
)

var strategies = map[string]chronos.Strategy{
	"clone":   chronos.Clone,
	"restart": chronos.SpeculativeRestart,
	"resume":  chronos.SpeculativeResume,
	"ns":      chronos.HadoopNS,
	"hadoop":  chronos.HadoopS,
	"mantri":  chronos.Mantri,
}

func main() {
	var (
		strategy = flag.String("strategy", "resume", "clone, restart, resume, ns, hadoop, mantri, or all")
		jobs     = flag.Int("jobs", 270, "number of trace jobs")
		horizon  = flag.Float64("horizon", 3*3600, "arrival horizon (seconds)")
		ratio    = flag.Float64("deadline-ratio", 2, "deadline as a multiple of mean task time")
		theta    = flag.Float64("theta", 1e-4, "PoCD/cost tradeoff factor")
		price    = flag.Float64("price", 1, "VM unit price C")
		seed     = flag.Uint64("seed", 1, "root random seed")
		nodes    = flag.Int("nodes", 2048, "cluster nodes (8 slots each)")
		window   = flag.Float64("window", 900, "window_summary width in sim seconds (0 disables)")
		events   = flag.Bool("events", false, "emit the raw NDJSON event stream instead of progress lines")
	)
	flag.Parse()
	if err := run(*strategy, *jobs, *horizon, *ratio, *theta, *price, *seed, *nodes, *window, *events); err != nil {
		fmt.Fprintln(os.Stderr, "chronos-sim:", err)
		os.Exit(1)
	}
}

func run(strategy string, jobs int, horizon, ratio, theta, price float64, seed uint64, nodes int, window float64, events bool) error {
	stream, err := chronos.SyntheticTrace(chronos.TraceConfig{
		Jobs:           jobs,
		HorizonSeconds: horizon,
		DeadlineRatio:  ratio,
		Seed:           seed,
	})
	if err != nil {
		return err
	}
	totalTasks := 0
	for _, j := range stream {
		totalTasks += j.Tasks
	}
	if !events {
		fmt.Printf("trace: %d jobs, %d tasks, %.1f h horizon, deadline = %.1fx mean\n\n",
			len(stream), totalTasks, horizon/3600, ratio)
	}

	names := []string{strategy}
	if strategy == "all" {
		if events {
			return fmt.Errorf("-events needs a single strategy: seq numbers and summaries are per-stream")
		}
		names = names[:0]
		for n := range strategies {
			names = append(names, n)
		}
		sort.Strings(names)
	}
	type row struct {
		s   chronos.Strategy
		rep chronos.Report
	}
	rows := make([]row, 0, len(names))
	enc := json.NewEncoder(os.Stdout)
	for _, name := range names {
		s, ok := strategies[name]
		if !ok {
			return fmt.Errorf("unknown strategy %q", name)
		}
		obs := chronos.ReplayObserverFunc(func(ev *chronos.ReplayEvent) error {
			if events {
				return enc.Encode(ev)
			}
			if ev.Kind == chronos.EventWindowSummary {
				w := ev.Window
				fmt.Printf("  [%s] t=%6.0fs  +%3d jobs  %d/%d done  PoCD %.3f  mean cost %.1f\n",
					s, w.End, w.Completed, w.Running.Jobs, w.Running.Submitted,
					w.Running.PoCD, w.Running.MeanCost)
			}
			return nil
		})
		rep, err := chronos.Replay(context.Background(), chronos.SimConfig{
			Strategy:     s,
			Seed:         seed,
			Econ:         chronos.Econ{Theta: theta, UnitPrice: price},
			Nodes:        nodes,
			SlotsPerNode: 8,
		}, stream, chronos.ReplayOptions{WindowSeconds: window, Observer: obs})
		if err != nil {
			return err
		}
		rows = append(rows, row{s, rep})
	}
	if events {
		return nil
	}
	fmt.Printf("\n%-22s %-8s %-12s %-10s\n", "strategy", "PoCD", "mean cost", "utility")
	fmt.Println(strings.Repeat("-", 56))
	for _, r := range rows {
		fmt.Printf("%-22s %-8.3f %-12.1f %-10.3f\n", r.s, r.rep.PoCD, r.rep.MeanCost, r.rep.Utility)
	}
	return nil
}
