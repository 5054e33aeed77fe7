// Command bench is the socket-level benchmark for chronosd. It builds
// cmd/chronosd from the tree, boots it as child processes with default flags,
// drives it over loopback from one closed-loop client, checks every answer
// against an oracle computed in this process, and prints every metric by name
// with its unit. README.md in this directory says what each workload and
// metric is for.
//
//	bash bench/run.sh --workload plan_hot --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --repeat 10            # spreads of the gated metrics
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	if len(os.Args) == 3 && os.Args[1] == yardstickFlag {
		fmt.Fprintln(os.Stderr, "bench: reference server:", serveYardstick(os.Args[2]))
		return 1
	}
	var (
		workload = flag.String("workload", "", "workload to run: plan_hot, plan_cold, fleet_admit or replay_stream (default: each in turn)")
		seed     = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 25, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1: the traced run (per-layer metrics, bench/out/trace.jsonl); 0: the gated run")
		repeat   = flag.Int("repeat", 0, "run the gated set N times, on seeds seed..seed+N-1, and print each metric's median, quartiles and spread")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || *repeat < 0 {
		flag.Usage()
		return 2
	}
	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
	}

	handleSignals()
	defer stopAll()
	e, err := prepare()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	if *repeat > 0 {
		return e.repeat(names, *seed, *seconds, *repeat)
	}
	status := 0
	for _, name := range names {
		res, err := e.run(runConfig{workload: name, seed: *seed, seconds: *seconds, traced: *trace == 1})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		res.print(name)
		if !res.Correct {
			status = 1
		}
	}
	return status
}

// print writes the findings, every metric by name with its unit, and the
// JSON line.
func (res *result) print(workload string) {
	for _, n := range res.notes {
		fmt.Println("#", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-14s %-36s %16.6g %s\n", workload, n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	fmt.Println(string(line))
}

// repeat is the tool behind every acceptance check and A/B on this
// benchmark: n gated runs per workload, each on another seed, then per
// metric the median, the quartiles as Python's statistics.quantiles(v, n=4)
// gives them, their distance as a share of the median (what the acceptance
// check bounds), and the largest deviation of any run from the median.
func (e *env) repeat(names []string, seed uint64, seconds float64, n int) int {
	status := 0
	for _, name := range names {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			res, err := e.run(runConfig{workload: name, seed: seed + uint64(i), seconds: seconds})
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			if !res.Correct {
				status = 1
				for _, note := range res.notes {
					fmt.Println("#", note)
				}
			}
			for m, v := range res.Metrics {
				values[m] = append(values[m], v.Value)
			}
			fmt.Fprintf(os.Stderr, "bench: %s run %d/%d (seed %d): %d failed", name, i+1, n, seed+uint64(i), res.Failed)
			for _, def := range endToEnd {
				fmt.Fprintf(os.Stderr, ", %s %.5g", def.name, res.Metrics[def.name].Value)
			}
			fmt.Fprintln(os.Stderr)
		}
		fmt.Printf("%-14s %-22s %6s %12s %12s %12s %9s %9s %7s\n",
			"workload", "metric", "unit", "median", "q1", "q3", "iqr/med", "max dev", "bound")
		for _, def := range endToEnd {
			v := values[def.name]
			med := median(v)
			q1, q3 := quartiles(v)
			dev := 0.0
			for _, x := range v {
				dev = math.Max(dev, math.Abs(x-med)/med)
			}
			fmt.Printf("%-14s %-22s %6s %12.6g %12.6g %12.6g %8.2f%% %8.2f%% %6.0f%%\n",
				name, def.name, def.unit, med, q1, q3, 100*(q3-q1)/med, 100*dev, 100*def.bound)
		}
	}
	return status
}
