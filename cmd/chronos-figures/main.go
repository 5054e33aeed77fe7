// Command chronos-figures regenerates the tables and figures of the paper's
// evaluation section from the simulation substrate.
//
// Usage:
//
//	chronos-figures [-exp all|fig2|table1|table2|fig3|fig4|fig5] [-jobs N] [-seed S]
//
// -jobs scales the trace-driven experiments (the paper's full run uses 2700
// jobs; the default here is a faster 270).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"chronos/internal/experiment"
	"chronos/internal/metrics"
	"chronos/internal/trace"
)

func main() {
	var (
		exp  = flag.String("exp", "all", "experiment to run: all, fig2, table1, table2, fig3, fig4, fig5, failures")
		jobs = flag.Int("jobs", 270, "number of trace jobs for the trace-driven experiments")
		seed = flag.Uint64("seed", 1, "root random seed")
	)
	flag.Parse()
	if err := run(os.Stdout, *exp, *jobs, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "chronos-figures:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, exp string, jobs int, seed uint64) error {
	runner := experiment.DefaultRunner()
	runner.Seed = seed
	// The CLI runs the full-size trace (jobs up to 2000 tasks); keep
	// capacity ample as in the paper's trace-driven simulator, so results
	// reflect scheduling policy rather than queueing collapse.
	runner.Nodes = 2048

	traceCfg := trace.DefaultGeneratorConfig()
	traceCfg.Jobs = jobs
	traceCfg.Seed = seed

	want := func(name string) bool { return exp == "all" || exp == name }
	ran := false

	if want("fig2") {
		ran = true
		rows, err := experiment.RunFigure2(runner, experiment.DefaultFig2Config())
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "=== Figure 2: PoCD / Cost / Utility per benchmark ===")
		fmt.Fprintln(w, experiment.Fig2Table(rows))
		// Figure 2(a) as bars, one chart per benchmark.
		byBench := map[string]*metrics.BarChart{}
		var order []string
		for _, row := range rows {
			c, ok := byBench[row.Benchmark]
			if !ok {
				c = metrics.NewBarChart("PoCD — " + row.Benchmark)
				byBench[row.Benchmark] = c
				order = append(order, row.Benchmark)
			}
			c.Add(row.Strategy, row.PoCD)
		}
		for _, name := range order {
			fmt.Fprintln(w, byBench[name])
		}
	}
	if want("table1") {
		ran = true
		cfg := experiment.DefaultTableConfig()
		cfg.Trace = traceCfg
		tr := runner
		tr.ReportInterval, tr.ReportNoise = 2, 0.1 // Hadoop-style observation
		rows, err := experiment.RunTable1(tr, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "=== Table I: varying tauEst (tauKill - tauEst = 0.5*tmin) ===")
		fmt.Fprintln(w, experiment.TableText(rows))
	}
	if want("table2") {
		ran = true
		cfg := experiment.DefaultTableConfig()
		cfg.Trace = traceCfg
		tr := runner
		tr.ReportInterval, tr.ReportNoise = 2, 0.1
		rows, err := experiment.RunTable2(tr, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "=== Table II: varying tauKill (fixed tauEst) ===")
		fmt.Fprintln(w, experiment.TableText(rows))
	}
	if want("fig3") {
		ran = true
		cfg := experiment.DefaultFig3Config()
		cfg.Trace = traceCfg
		rows, err := experiment.RunFigure3(runner, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "=== Figure 3: PoCD / Cost / Utility vs theta ===")
		fmt.Fprintln(w, experiment.Fig3Table(rows))
		// Cost-vs-theta profile per strategy (Figure 3(b) at a glance).
		costs := map[string][]float64{}
		var names []string
		for _, row := range rows {
			if _, ok := costs[row.Strategy]; !ok {
				names = append(names, row.Strategy)
			}
			costs[row.Strategy] = append(costs[row.Strategy], row.Cost)
		}
		fmt.Fprintln(w, "cost vs theta (left to right = growing theta):")
		for _, name := range names {
			fmt.Fprintf(w, "  %-22s %s\n", name, metrics.Sparkline(costs[name]))
		}
		fmt.Fprintln(w)
	}
	if want("fig4") {
		ran = true
		rows, err := experiment.RunFigure4(runner, experiment.DefaultFig4Config())
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "=== Figure 4: PoCD / Cost / Utility vs beta ===")
		fmt.Fprintln(w, experiment.Fig4Table(rows))
	}
	if want("fig5") {
		ran = true
		cfg := experiment.DefaultFig5Config()
		cfg.Fig3.Trace = traceCfg
		series, err := experiment.RunFigure5(runner, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "=== Figure 5: histogram of the optimal r ===")
		fmt.Fprintln(w, experiment.Fig5Table(series))
	}
	if want("failures") {
		ran = true
		r := runner
		r.Nodes = 32 // small cluster so failures actually bite
		rows, err := experiment.RunFailures(r, experiment.DefaultFailureConfig())
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "=== Extension: node-failure resilience ===")
		fmt.Fprintln(w, experiment.FailureTable(rows))
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
