package replay_test

import (
	"context"
	"runtime"
	"runtime/metrics"
	"testing"

	"chronos"
)

// BenchmarkReplayThroughput measures the streaming core end to end — lazy
// submission, event emission, per-job settlement — on the shape /v1/replay
// serves in bench/'s replay_stream workload: a 500-job synthetic trace with
// arrivals 200 s apart on the default 256x8 cluster, one sub-benchmark per
// Chronos strategy. ns/task and
// allocs/job are bench/'s speculate.task_ns.* and replay.allocs_per_job
// units, so the artifact `make bench` archives reads against them; B/op is
// the bytes one replay allocates, and gc/op the garbage-collection cycles
// that ran per replay.
func BenchmarkReplayThroughput(b *testing.B) {
	jobs, err := chronos.SyntheticTrace(chronos.TraceConfig{Jobs: 500, HorizonSeconds: 200 * 500, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tasks := 0
	for _, j := range jobs {
		tasks += j.Tasks
	}
	obs := chronos.ReplayObserverFunc(func(*chronos.ReplayEvent) error { return nil })
	for _, s := range []chronos.Strategy{chronos.Clone, chronos.SpeculativeRestart, chronos.SpeculativeResume} {
		b.Run(s.String(), func(b *testing.B) {
			b.ReportAllocs()
			cfg := chronos.SimConfig{Strategy: s, Seed: 1}
			var before, after runtime.MemStats
			gc := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
			runtime.ReadMemStats(&before)
			metrics.Read(gc)
			cycles := gc[0].Value.Uint64()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := chronos.Replay(context.Background(), cfg, jobs,
					chronos.ReplayOptions{Observer: obs}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			metrics.Read(gc)
			b.ReportMetric(float64(gc[0].Value.Uint64()-cycles)/float64(b.N), "gc/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tasks*b.N), "ns/task")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(len(jobs)*b.N), "allocs/job")
			b.ReportMetric(float64(len(jobs)*b.N)/b.Elapsed().Seconds(), "jobs/sec")
		})
	}
}
