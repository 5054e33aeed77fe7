package chronos

// The ablation benchmarks (design choices called out in DESIGN.md) and the
// micro-benchmarks for the hot paths (Pareto sampling, the event queue,
// Algorithm 1). BenchmarkFigures, which times each table and figure that
// cmd/chronos-figures prints, lives beside that command. Run them all with:
//
//	go test -bench=. -benchmem ./...

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"

	"chronos/internal/analysis"
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
		_ = d.FromUniform(rng.Float64())
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

// BenchmarkOptimizeBest times the best-of-three solve one /v1/plan miss
// runs, over 4,096 trace jobs drawn as the socket benchmark's plan_cold
// workload draws its seed-1 shapes (control instants at 0.3 and 0.6 of
// tmin). ns/op is one OptimizeBest call.
func BenchmarkOptimizeBest(b *testing.B) {
	jobs, err := SyntheticTrace(TraceConfig{Jobs: 4096, Seed: 2_000_008})
	if err != nil {
		b.Fatal(err)
	}
	params := make([]JobParams, len(jobs))
	for i, j := range jobs {
		params[i] = JobParams{Tasks: j.Tasks, Deadline: j.Deadline, TMin: j.TMin, Beta: j.Beta,
			TauEst: 0.3 * j.TMin, TauKill: 0.6 * j.TMin}
	}
	econ := Econ{Theta: 1e-4, UnitPrice: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OptimizeBest(params[i%len(params)], econ); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBudgetFrontier builds the best-of-three budget frontier of 512
// trace jobs drawn as the socket benchmark's fleet_admit workload draws its
// seed-1 shapes (control instants at 0.3 and 0.6 of tmin), the table the
// plan cache keeps per squeezed admit cell. ns/op is one build;
// retained-B/frontier is the live heap all 512 tables hold after a GC,
// divided by 512.
func BenchmarkBudgetFrontier(b *testing.B) {
	jobs, err := SyntheticTrace(TraceConfig{Jobs: 512, Seed: 2_000_009})
	if err != nil {
		b.Fatal(err)
	}
	params := make([]JobParams, len(jobs))
	for i, j := range jobs {
		params[i] = JobParams{Tasks: j.Tasks, Deadline: j.Deadline, TMin: j.TMin, Beta: j.Beta,
			TauEst: 0.3 * j.TMin, TauKill: 0.6 * j.TMin}
	}
	econ := Econ{Theta: 1e-4, UnitPrice: 1}
	frontiers := make([]*BudgetFrontier, len(params))
	build := func(i int) {
		if frontiers[i], err = NewBudgetFrontierBest(params[i], econ); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		build(i % len(params))
	}
	b.StopTimer()
	for i, f := range frontiers {
		if f == nil {
			build(i)
		}
	}
	var held, freed runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&held)
	clear(frontiers)
	runtime.GC()
	runtime.ReadMemStats(&freed)
	b.ReportMetric(float64(held.HeapAlloc-freed.HeapAlloc)/float64(len(params)), "retained-B/frontier")
}

// BenchmarkPlanBatch splits one shared budget, three times what r = 0 costs,
// across 1,024 seeded random jobs of all three strategies (N 1-100, beta
// 1.2-2.2, D 1.5-6.5 tmin, tau_est <= 0.6 tmin, tau_kill <= tau_est +
// 0.6 tmin). ns/op is one PlanBatch: every job's window, its undominated
// points and the walk over all of their hulls.
func BenchmarkPlanBatch(b *testing.B) {
	rng := rand.New(rand.NewPCG(1024, 3))
	jobs := make([]BatchJob, 1024)
	budget := 0.0
	for i := range jobs {
		tauEst := rng.Float64() * 6
		p := JobParams{Tasks: 1 + rng.IntN(100), Deadline: 10 * (1.5 + 5*rng.Float64()), TMin: 10,
			Beta: 1.2 + rng.Float64(), TauEst: tauEst, TauKill: tauEst + rng.Float64()*6}
		jobs[i] = BatchJob{Strategy: ChronosStrategies()[rng.IntN(3)], Params: p}
		mt, err := ExpectedMachineTime(jobs[i].Strategy, p, 0)
		if err != nil {
			b.Fatal(err)
		}
		budget += 3 * mt
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanBatch(jobs, budget); err != nil {
			b.Fatal(err)
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
