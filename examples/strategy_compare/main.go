// strategy_compare: the four testbed benchmarks under every strategy.
//
// A compact version of the paper's Figure 2 experiment: for each of Sort,
// SecondarySort, TeraSort, and WordCount (calibrated to their measured
// heavy-tailed task-time profiles and paper deadlines), run all six
// strategies — the three Chronos strategies plus the paper's three baselines —
// under identical random numbers, and print the PoCD / cost outcome per cell.
//
// Run with:
//
//	go run ./examples/strategy_compare
package main

import (
	"fmt"
	"log"

	"chronos"
)

func main() {
	econ := chronos.Econ{Theta: 1e-4, UnitPrice: 1}
	strategies := []chronos.Strategy{
		chronos.HadoopNS, chronos.HadoopS, chronos.Mantri,
		chronos.Clone, chronos.SpeculativeRestart, chronos.SpeculativeResume,
	}

	for _, bench := range chronos.Benchmarks() {
		kind := "I/O-bound"
		if bench.CPUBound {
			kind = "CPU-bound"
		}
		fmt.Printf("%s (%s, D=%.0fs, tasks ~ Pareto(%.0f, %.2f))\n",
			bench.Name, kind, bench.Deadline, bench.TMin, bench.Beta)

		jobs := bench.Jobs(60 /* jobs */, 10 /* tasks */, 4*bench.Deadline)
		for _, s := range strategies {
			rep, err := chronos.Simulate(chronos.SimConfig{
				Strategy: s,
				Seed:     3,
				TauEst:   40,
				TauKill:  80,
				TauScale: chronos.TauAbsolute,
				Econ:     econ,
			}, jobs)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-22s PoCD=%.3f  cost=%8.1f  utility=%7.3f\n",
				s, rep.PoCD, rep.MeanCost, rep.Utility)
		}
		fmt.Println()
	}
}
