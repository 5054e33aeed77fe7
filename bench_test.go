package chronos

// The benchmark harness regenerates every table and figure of the paper's
// evaluation section. Run it with:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkFigureN / BenchmarkTableN executes the corresponding
// experiment once per iteration and prints the regenerated rows on the
// first iteration (compare against EXPERIMENTS.md). Micro-benchmarks for
// the hot paths (Pareto sampling, the event queue, Algorithm 1) follow.

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"chronos/internal/analysis"
	"chronos/internal/experiment"
	"chronos/internal/optimize"
	"chronos/internal/pareto"
	"chronos/internal/sim"
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
	r := experiment.DefaultRunner()
	cfg := experiment.DefaultFig2Config()
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunFigure2(r, cfg)
		if err != nil {
			b.Fatal(err)
		}
		dumpOnce("Figure 2 (PoCD / Cost / Utility per benchmark)",
			experiment.Fig2Table(rows).String())
	}
}

// BenchmarkTable1 regenerates Table I: the tauEst sweep with
// tauKill - tauEst fixed at 0.5*tmin on the trace-driven simulation.
func BenchmarkTable1(b *testing.B) {
	r := experiment.DefaultRunner()
	// The tau sweeps only bite when the AM observes progress the way real
	// Hadoop does: periodic, noisy reports.
	r.ReportInterval = 2
	r.ReportNoise = 0.1
	cfg := experiment.DefaultTableConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunTable1(r, cfg)
		if err != nil {
			b.Fatal(err)
		}
		dumpOnce("Table I (varying tauEst, tauKill-tauEst = 0.5*tmin)",
			experiment.TableText(rows).String())
	}
}

// BenchmarkTable2 regenerates Table II: the tauKill sweep with tauEst
// fixed.
func BenchmarkTable2(b *testing.B) {
	r := experiment.DefaultRunner()
	r.ReportInterval = 2
	r.ReportNoise = 0.1
	cfg := experiment.DefaultTableConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunTable2(r, cfg)
		if err != nil {
			b.Fatal(err)
		}
		dumpOnce("Table II (varying tauKill, fixed tauEst)",
			experiment.TableText(rows).String())
	}
}

// BenchmarkFigure3 regenerates Figure 3(a)-(c): PoCD, cost, and utility of
// Mantri, Clone, S-Restart, and S-Resume versus the tradeoff factor theta.
func BenchmarkFigure3(b *testing.B) {
	r := experiment.DefaultRunner()
	cfg := experiment.DefaultFig3Config()
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunFigure3(r, cfg)
		if err != nil {
			b.Fatal(err)
		}
		dumpOnce("Figure 3 (PoCD / Cost / Utility vs theta)",
			experiment.Fig3Table(rows).String())
	}
}

// BenchmarkFigure4 regenerates Figure 4(a)-(c): PoCD, cost, and utility of
// the five strategies versus the Pareto tail index beta, with deadlines at
// 2x the mean task time.
func BenchmarkFigure4(b *testing.B) {
	r := experiment.DefaultRunner()
	cfg := experiment.DefaultFig4Config()
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunFigure4(r, cfg)
		if err != nil {
			b.Fatal(err)
		}
		dumpOnce("Figure 4 (PoCD / Cost / Utility vs beta)",
			experiment.Fig4Table(rows).String())
	}
}

// BenchmarkFigure5 regenerates Figure 5: the histogram of the
// optimizer-chosen r for Clone and S-Resume at theta = 1e-5 and 1e-4.
func BenchmarkFigure5(b *testing.B) {
	r := experiment.DefaultRunner()
	cfg := experiment.DefaultFig5Config()
	for i := 0; i < b.N; i++ {
		series, err := experiment.RunFigure5(r, cfg)
		if err != nil {
			b.Fatal(err)
		}
		dumpOnce("Figure 5 (histogram of optimal r)",
			experiment.Fig5Table(series).String())
	}
}

// --- Ablation benches (design choices called out in DESIGN.md) ------------

// BenchmarkAblationEstimator compares the Chronos estimator (Eq. 30)
// against Hadoop's default estimator inside the Speculative-Resume
// strategy: the design choice motivating Section VI-B. Hadoop's estimator
// folds the JVM startup delay into the processing rate and overestimates
// completion times, producing false-positive straggler detections and
// wasted speculative attempts.
func BenchmarkAblationEstimator(b *testing.B) {
	jobs := Benchmarks()[0].Jobs(100, 10, 400)
	for i := 0; i < b.N; i++ {
		base := SimConfig{
			Strategy: SpeculativeResume, Seed: 21,
			TauEst: 40, TauKill: 80, TauScale: TauAbsolute,
		}
		exact, err := Simulate(base, jobs)
		if err != nil {
			b.Fatal(err)
		}
		hadoopCfg := base
		hadoopCfg.UseHadoopEstimator = true
		hadoop, err := Simulate(hadoopCfg, jobs)
		if err != nil {
			b.Fatal(err)
		}
		dumpOnce("Ablation: estimator (S-Resume, Eq. 30 vs Hadoop default)", fmt.Sprintf(
			"chronos (eq. 30): PoCD=%.3f cost=%.1f\nhadoop default:   PoCD=%.3f cost=%.1f",
			exact.PoCD, exact.MeanCost, hadoop.PoCD, hadoop.MeanCost))
	}
}

// BenchmarkAblationFixedR sweeps fixed r against the optimizer's choice,
// quantifying what Algorithm 1 buys over static replication (Dolly-style
// fixed cloning).
func BenchmarkAblationFixedR(b *testing.B) {
	jobs := Benchmarks()[0].Jobs(100, 10, 400)
	for i := 0; i < b.N; i++ {
		var out string
		for r := 0; r <= 3; r++ {
			rep, err := Simulate(SimConfig{
				Strategy: Clone, Seed: 22,
				TauEst: 40, TauKill: 80, TauScale: TauAbsolute,
				UseFixedR: true, FixedR: r,
			}, jobs)
			if err != nil {
				b.Fatal(err)
			}
			out += fmt.Sprintf("fixed r=%d: PoCD=%.3f cost=%.1f utility=%.3f\n",
				r, rep.PoCD, rep.MeanCost, rep.Utility)
		}
		opt, err := Simulate(SimConfig{
			Strategy: Clone, Seed: 22,
			TauEst: 40, TauKill: 80, TauScale: TauAbsolute,
		}, jobs)
		if err != nil {
			b.Fatal(err)
		}
		out += fmt.Sprintf("optimized:  PoCD=%.3f cost=%.1f utility=%.3f",
			opt.PoCD, opt.MeanCost, opt.Utility)
		dumpOnce("Ablation: fixed r vs Algorithm 1 (Clone)", out)
	}
}

// --- Micro-benchmarks on the hot paths ------------------------------------

// BenchmarkParetoSample measures inverse-transform sampling.
func BenchmarkParetoSample(b *testing.B) {
	d := pareto.MustNew(10, 1.5)
	rng := rand.New(rand.NewPCG(1, 2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = d.Sample(rng)
	}
}

// BenchmarkEventQueue measures schedule+fire throughput of the DES core.
func BenchmarkEventQueue(b *testing.B) {
	eng := sim.NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.After(1, func() {})
		eng.Step()
	}
}

// BenchmarkAlgorithm1 measures one full joint optimization (the per-job
// work the AM does at submission).
func BenchmarkAlgorithm1(b *testing.B) {
	p := analysis.Params{
		N: 100, Deadline: 100, Task: pareto.MustNew(10, 1.5),
		TauEst: 30, TauKill: 60,
	}
	cfg := optimize.Config{Theta: 1e-4, UnitPrice: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, s := range analysis.Strategies() {
			if _, err := optimize.Solve(analysis.NewModel(s, p), cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkClosedFormPoCD measures a single Theorem 5 evaluation.
func BenchmarkClosedFormPoCD(b *testing.B) {
	m := analysis.NewModel(analysis.StrategyResume, analysis.Params{
		N: 100, Deadline: 100, Task: pareto.MustNew(10, 1.5),
		TauEst: 30, TauKill: 60,
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.PoCD(i % 8)
	}
}

// BenchmarkSimulateJob measures end-to-end DES throughput for one 10-task
// job under S-Resume.
func BenchmarkSimulateJob(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := Simulate(SimConfig{
			Strategy: SpeculativeResume,
			Seed:     uint64(i),
			TauEst:   40, TauKill: 80, TauScale: TauAbsolute,
		}, []SimJob{{Tasks: 10, Deadline: 100, TMin: 10, Beta: 1.5}})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionFailures runs the failure-resilience extension: PoCD and
// cost of Hadoop-NS, S-Restart, and S-Resume as node MTBF shrinks (the
// paper's closing remark on S-Resume under system breakdown, quantified).
func BenchmarkExtensionFailures(b *testing.B) {
	r := experiment.DefaultRunner()
	r.Nodes = 32
	cfg := experiment.DefaultFailureConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunFailures(r, cfg)
		if err != nil {
			b.Fatal(err)
		}
		dumpOnce("Extension: node-failure resilience",
			experiment.FailureTable(rows).String())
	}
}
