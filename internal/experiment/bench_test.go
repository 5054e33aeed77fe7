package experiment

// The benchmark harness regenerates every table and figure of the paper's
// evaluation section. Run it with:
//
//	go test -bench=. -benchmem ./internal/experiment
//
// Each BenchmarkFigureN / BenchmarkTableN executes the corresponding
// experiment once per iteration and prints the regenerated rows on the
// first iteration (compare against EXPERIMENTS.md).

import (
	"fmt"
	"sync"
	"testing"
)

// printOnce guards the one-time table dumps so -benchtime doesn't spam.
var printOnce sync.Map

func dumpOnce(key, text string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n=== %s ===\n%s\n", key, text)
	}
}

// BenchmarkFigure2 regenerates Figure 2(a)-(c): PoCD, cost, and utility of
// Hadoop-NS, Hadoop-S, Clone, S-Restart, and S-Resume on the four testbed
// benchmarks (100 jobs x 10 tasks each, deadlines 100/150 s, tauEst=40,
// tauKill=80, theta=1e-4).
func BenchmarkFigure2(b *testing.B) {
	r := DefaultRunner()
	cfg := DefaultFig2Config()
	for i := 0; i < b.N; i++ {
		rows, err := RunFigure2(r, cfg)
		if err != nil {
			b.Fatal(err)
		}
		dumpOnce("Figure 2 (PoCD / Cost / Utility per benchmark)",
			Fig2Table(rows).String())
	}
}

// BenchmarkTable1 regenerates Table I: the tauEst sweep with
// tauKill - tauEst fixed at 0.5*tmin on the trace-driven simulation.
func BenchmarkTable1(b *testing.B) {
	r := DefaultRunner()
	// The tau sweeps only bite when the AM observes progress the way real
	// Hadoop does: periodic, noisy reports.
	r.ReportInterval = 2
	r.ReportNoise = 0.1
	cfg := DefaultTableConfig()
	for i := 0; i < b.N; i++ {
		rows, err := RunTable1(r, cfg)
		if err != nil {
			b.Fatal(err)
		}
		dumpOnce("Table I (varying tauEst, tauKill-tauEst = 0.5*tmin)",
			TableText(rows).String())
	}
}

// BenchmarkTable2 regenerates Table II: the tauKill sweep with tauEst
// fixed.
func BenchmarkTable2(b *testing.B) {
	r := DefaultRunner()
	r.ReportInterval = 2
	r.ReportNoise = 0.1
	cfg := DefaultTableConfig()
	for i := 0; i < b.N; i++ {
		rows, err := RunTable2(r, cfg)
		if err != nil {
			b.Fatal(err)
		}
		dumpOnce("Table II (varying tauKill, fixed tauEst)",
			TableText(rows).String())
	}
}

// BenchmarkFigure3 regenerates Figure 3(a)-(c): PoCD, cost, and utility of
// Mantri, Clone, S-Restart, and S-Resume versus the tradeoff factor theta.
func BenchmarkFigure3(b *testing.B) {
	r := DefaultRunner()
	cfg := DefaultFig3Config()
	for i := 0; i < b.N; i++ {
		rows, err := RunFigure3(r, cfg)
		if err != nil {
			b.Fatal(err)
		}
		dumpOnce("Figure 3 (PoCD / Cost / Utility vs theta)",
			Fig3Table(rows).String())
	}
}

// BenchmarkFigure4 regenerates Figure 4(a)-(c): PoCD, cost, and utility of
// the five strategies versus the Pareto tail index beta, with deadlines at
// 2x the mean task time.
func BenchmarkFigure4(b *testing.B) {
	r := DefaultRunner()
	cfg := DefaultFig4Config()
	for i := 0; i < b.N; i++ {
		rows, err := RunFigure4(r, cfg)
		if err != nil {
			b.Fatal(err)
		}
		dumpOnce("Figure 4 (PoCD / Cost / Utility vs beta)",
			Fig4Table(rows).String())
	}
}

// BenchmarkFigure5 regenerates Figure 5: the histogram of the
// optimizer-chosen r for Clone and S-Resume at theta = 1e-5 and 1e-4.
func BenchmarkFigure5(b *testing.B) {
	r := DefaultRunner()
	cfg := DefaultFig5Config()
	for i := 0; i < b.N; i++ {
		series, err := RunFigure5(r, cfg)
		if err != nil {
			b.Fatal(err)
		}
		dumpOnce("Figure 5 (histogram of optimal r)",
			Fig5Table(series).String())
	}
}

// BenchmarkExtensionFailures runs the failure-resilience extension: PoCD and
// cost of Hadoop-NS, S-Restart, and S-Resume as node MTBF shrinks (the
// paper's closing remark on S-Resume under system breakdown, quantified).
func BenchmarkExtensionFailures(b *testing.B) {
	r := DefaultRunner()
	r.Nodes = 32
	cfg := DefaultFailureConfig()
	for i := 0; i < b.N; i++ {
		rows, err := RunFailures(r, cfg)
		if err != nil {
			b.Fatal(err)
		}
		dumpOnce("Extension: node-failure resilience",
			FailureTable(rows).String())
	}
}
