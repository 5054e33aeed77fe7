// Command chronos-figures regenerates the tables and figures of the paper's
// evaluation (Section VII) by running chronos.Simulate on the configuration
// it prints:
//
//	Figure 2  — PoCD / Cost / Utility per benchmark (testbed experiment)
//	Table I   — sweep of tauEst with tauKill - tauEst fixed
//	Table II  — sweep of tauKill with tauEst fixed
//	Figure 3  — PoCD / Cost / Utility vs tradeoff factor theta (trace-driven)
//	Figure 4  — PoCD / Cost / Utility vs Pareto tail index beta
//	Figure 5  — histogram of the optimal r for Clone and S-Resume
//
// Usage:
//
//	chronos-figures [-exp all|fig2|table1|table2|fig3|fig4|fig5] [-jobs N] [-seed S]
//
// -jobs sizes the synthetic trace of the trace-driven experiments (the
// paper's full run uses 2700 jobs; the default here is a faster 270).
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"chronos"
	"chronos/internal/metrics"
	"chronos/internal/optimize"
	"chronos/internal/pareto"
	"chronos/internal/workload"
)

func main() {
	var (
		exp  = flag.String("exp", "all", "experiment to run: all, fig2, table1, table2, fig3, fig4, fig5")
		jobs = flag.Int("jobs", 270, "number of trace jobs for the trace-driven experiments")
		seed = flag.Uint64("seed", 1, "root random seed")
	)
	flag.Parse()
	if err := run(os.Stdout, *exp, *jobs, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "chronos-figures:", err)
		os.Exit(1)
	}
}

// A cell is one simulation: cfg over the synthetic trace, or, when n is set,
// over n jobs of bench's 10 tasks each, spaced spacing seconds apart.
type cell struct {
	bench   chronos.Benchmark
	n       int
	spacing float64
	cfg     chronos.SimConfig
}

func (c cell) jobs(trace []chronos.SimJob) []chronos.SimJob {
	if c.n == 0 {
		return trace
	}
	return c.bench.Jobs(c.n, 10, c.spacing)
}

// A result is one printed row: its cell, which carries the coordinates, and
// the cell's report.
type result struct {
	cell
	rep chronos.Report
}

// results renders the PoCD, cost and utility columns.
func (r result) results(utility float64) []string {
	return []string{metrics.FormatFloat(r.rep.PoCD, 3), metrics.FormatFloat(r.rep.MeanCost, 1), metrics.FormatFloat(utility, 3)}
}

// A section is one figure or table: its -exp name, its title, its cells in
// print order, and the renderer of their rows.
type section struct {
	exp, title string
	cells      []cell
	print      func(io.Writer, []result)
}

func run(w io.Writer, exp string, jobs int, seed uint64) error {
	// chronos.SyntheticTrace reads 0 as "default", which would silently
	// run 270 jobs at seed 1.
	if jobs < 1 {
		return fmt.Errorf("-jobs %d: the trace needs at least one job", jobs)
	}
	if seed == 0 {
		return fmt.Errorf("-seed 0: the seed must be positive")
	}
	var todo []section
	for _, s := range sections(seed) {
		if exp == "all" || exp == s.exp {
			todo = append(todo, s)
		}
	}
	if len(todo) == 0 {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	trace, err := chronos.SyntheticTrace(chronos.TraceConfig{Jobs: jobs, Seed: seed})
	if err != nil {
		return err
	}
	reports := map[cell]chronos.Report{}
	for _, s := range todo {
		for _, c := range s.cells {
			if _, ok := reports[c]; ok {
				continue
			}
			if reports[c], err = chronos.Simulate(c.cfg, c.jobs(trace)); err != nil {
				return err
			}
		}
	}
	for _, s := range todo {
		rows := make([]result, len(s.cells))
		for i, c := range s.cells {
			rows[i] = result{c, reports[c]}
		}
		fmt.Fprintf(w, "=== %s ===\n", s.title)
		s.print(w, rows)
	}
	return nil
}

// sections lists the evaluation in print order. Every run shares one
// generously provisioned cluster, so results reflect scheduling policy
// rather than queueing collapse, and one seed, so all strategies see common
// random numbers.
func sections(seed uint64) []section {
	base := chronos.SimConfig{Nodes: 2048, SlotsPerNode: 8, Seed: seed}
	econ := func(theta float64) chronos.Econ { return chronos.Econ{Theta: theta, UnitPrice: 1} }
	testbed := []chronos.Strategy{chronos.HadoopNS, chronos.HadoopS,
		chronos.Clone, chronos.SpeculativeRestart, chronos.SpeculativeResume}
	reactive := []chronos.Strategy{chronos.SpeculativeRestart, chronos.SpeculativeResume}

	// Figure 2: 100 jobs of 10 tasks per benchmark, tauEst = 40 s and
	// tauKill = 80 s after arrival, theta = 1e-4.
	// chronos.Benchmarks lists workload.Profiles in order; the profile adds
	// the benchmark's JVM start-up delay.
	var fig2 []cell
	profiles := workload.Profiles()
	for i, b := range chronos.Benchmarks() {
		cfg := base
		cfg.Econ, cfg.TauEst, cfg.TauKill, cfg.TauScale = econ(1e-4), 40, 80, chronos.TauAbsolute
		cfg.JVMMin, cfg.JVMMax = profiles[i].JVM.Min, profiles[i].JVM.Max
		for _, s := range testbed {
			cfg.Strategy = s
			fig2 = append(fig2, cell{bench: b, n: 100, spacing: 400, cfg: cfg})
		}
	}

	// Tables I and II: the trace at theta = 1e-5, with the AM observing
	// progress the way Hadoop does, in 2 s reports with 10 % noise; tau in
	// units of each job's tmin. The tables share Restart and Resume at
	// 0.3/0.8.
	tau := func(s chronos.Strategy, est, kill float64) cell {
		cfg := base
		cfg.Strategy, cfg.Econ, cfg.TauEst, cfg.TauKill = s, econ(1e-5), est, kill
		cfg.ReportInterval, cfg.ReportNoise = 2, 0.1
		return cell{cfg: cfg}
	}
	kills := []float64{0.4, 0.6, 0.8}
	table1 := []cell{tau(chronos.Clone, 0, 0.5)}
	var table2 []cell
	for _, kill := range kills {
		table2 = append(table2, tau(chronos.Clone, 0, kill))
	}
	for _, s := range reactive {
		for _, est := range []float64{0.1, 0.3, 0.5} {
			table1 = append(table1, tau(s, est, est+0.5))
		}
		for _, kill := range kills {
			table2 = append(table2, tau(s, 0.3, kill))
		}
	}

	// Figure 3: the trace over theta at tau = 0.3/0.6 tmin; Figure 5 is the r
	// histograms of its Clone and S-Resume cells at theta = 1e-5 and 1e-4.
	var fig3, fig5 []cell
	for _, theta := range []float64{1e-6, 1e-5, 1e-4, 1e-3} {
		cfg := base
		cfg.Econ, cfg.TauEst, cfg.TauKill = econ(theta), 0.3, 0.6
		for _, s := range []chronos.Strategy{chronos.Mantri, chronos.Clone, chronos.SpeculativeRestart, chronos.SpeculativeResume} {
			cfg.Strategy = s
			fig3 = append(fig3, cell{cfg: cfg})
			if (theta == 1e-5 || theta == 1e-4) && (s == chronos.Clone || s == chronos.SpeculativeResume) {
				fig5 = append(fig5, cell{cfg: cfg})
			}
		}
	}

	// Figure 4: 150 jobs of 10 Pareto(10, beta) tasks per beta, each due at
	// twice the mean task time.
	var fig4 []cell
	cfg := base
	cfg.Econ, cfg.TauEst, cfg.TauKill = econ(1e-4), 0.3, 0.6
	for _, beta := range []float64{1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9} {
		deadline := 2 * pareto.MustNew(10, beta).Mean()
		b := chronos.Benchmark{TMin: 10, Beta: beta, Deadline: deadline}
		for _, s := range testbed {
			cfg.Strategy = s
			fig4 = append(fig4, cell{bench: b, n: 150, spacing: deadline * 4, cfg: cfg})
		}
	}

	return []section{
		{"fig2", "Figure 2: PoCD / Cost / Utility per benchmark", fig2, printFig2},
		{"table1", "Table I: varying tauEst (tauKill - tauEst = 0.5*tmin)", table1, printTable},
		{"table2", "Table II: varying tauKill (fixed tauEst)", table2, printTable},
		{"fig3", "Figure 3: PoCD / Cost / Utility vs theta", fig3, printFig3},
		{"fig4", "Figure 4: PoCD / Cost / Utility vs beta", fig4, printFig4},
		{"fig5", "Figure 5: histogram of the optimal r", fig5, printFig5},
	}
}

// printFig2 prints Figure 2(a)-(c) and 2(a) again as one bar chart per
// benchmark. Each benchmark's Hadoop-NS PoCD is its Rmin, so Hadoop-NS's
// own utility is -Inf, as in Figure 2(c).
func printFig2(w io.Writer, rows []result) {
	t := metrics.NewTable("Benchmark", "Strategy", "PoCD", "Cost", "Utility")
	var charts []*metrics.BarChart
	var rmin float64
	for _, r := range rows {
		utility := math.Inf(-1)
		if r.cfg.Strategy == chronos.HadoopNS {
			rmin = min(r.rep.PoCD, 1-1e-6) // below 1, so feasible strategies exist
			charts = append(charts, metrics.NewBarChart("PoCD — "+r.bench.Name))
		} else {
			econ := optimize.Config(r.cfg.Econ)
			econ.RMin = rmin
			utility = econ.UtilityFromMeasured(r.rep.PoCD, r.rep.MeanCost)
		}
		t.AddRow(append([]string{r.bench.Name, r.cfg.Strategy.String()}, r.results(utility)...)...)
		charts[len(charts)-1].Add(r.cfg.Strategy.String(), r.rep.PoCD)
	}
	fmt.Fprintln(w, t)
	for _, c := range charts {
		fmt.Fprintln(w, c)
	}
}

// printTable prints Table I or II in the paper's layout.
func printTable(w io.Writer, rows []result) {
	t := metrics.NewTable("Strategy", "tauEst", "tauKill", "PoCD", "Cost", "Utility")
	for _, r := range rows {
		t.AddRow(append([]string{r.cfg.Strategy.String(),
			metrics.FormatFloat(r.cfg.TauEst, 1) + "*tmin",
			metrics.FormatFloat(r.cfg.TauKill, 1) + "*tmin"}, r.results(r.rep.Utility)...)...)
	}
	fmt.Fprintln(w, t)
}

// printFig3 prints the theta sweep and each strategy's cost profile over it
// (Figure 3(b) at a glance).
func printFig3(w io.Writer, rows []result) {
	t := metrics.NewTable("theta", "Strategy", "PoCD", "Cost", "Utility")
	costs := map[string][]float64{}
	var names []string
	for _, r := range rows {
		name := r.cfg.Strategy.String()
		t.AddRow(append([]string{metrics.FormatFloat(r.cfg.Econ.Theta, 6), name}, r.results(r.rep.Utility)...)...)
		if _, ok := costs[name]; !ok {
			names = append(names, name)
		}
		costs[name] = append(costs[name], r.rep.MeanCost)
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "cost vs theta (left to right = growing theta):")
	for _, name := range names {
		fmt.Fprintf(w, "  %-22s %s\n", name, metrics.Sparkline(costs[name]))
	}
	fmt.Fprintln(w)
}

// printFig4 prints the beta sweep.
func printFig4(w io.Writer, rows []result) {
	t := metrics.NewTable("beta", "Strategy", "PoCD", "Cost", "Utility")
	for _, r := range rows {
		t.AddRow(append([]string{metrics.FormatFloat(r.bench.Beta, 1), r.cfg.Strategy.String()}, r.results(r.rep.Utility)...)...)
	}
	fmt.Fprintln(w, t)
}

// printFig5 prints each optimal-r histogram as frequency pairs.
func printFig5(w io.Writer, rows []result) {
	t := metrics.NewTable("Strategy", "theta", "r-histogram (r:count)", "mode")
	for _, r := range rows {
		h := metrics.Histogram(r.rep.RHistogram)
		mode, _ := h.Mode()
		t.AddRow(r.cfg.Strategy.String(), metrics.FormatFloat(r.cfg.Econ.Theta, 6), h.String(), fmt.Sprint(mode))
	}
	fmt.Fprintln(w, t)
}
