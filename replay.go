package chronos

import (
	"context"
	"sync"

	"chronos/internal/cluster"
	"chronos/internal/mapreduce"
	"chronos/internal/optimize"
	"chronos/internal/replay"
	"chronos/internal/sim"
)

// The streaming replay API re-exports the internal event vocabulary so
// library consumers, the CLIs, and the chronosd NDJSON endpoint share one
// wire format.
type (
	// ReplayEvent is one entry of the event stream.
	ReplayEvent = replay.Event
	// ReplayEventKind discriminates stream entries.
	ReplayEventKind = replay.Kind
	// ReplayJobEvent identifies the subject job of an event.
	ReplayJobEvent = replay.JobEvent
	// ReplayOutcome is the settled accounting of a completed job.
	ReplayOutcome = replay.Outcome
	// ReplayWindow is one periodic aggregate.
	ReplayWindow = replay.Window
	// ReplaySummary is the cumulative aggregate view of a stream.
	ReplaySummary = replay.Summary
	// ReplayObserver receives events in emission order; returning an error
	// aborts the replay.
	ReplayObserver = replay.Observer
	// ReplayObserverFunc adapts a function to ReplayObserver.
	ReplayObserverFunc = replay.ObserverFunc
)

// The streamed event kinds.
const (
	EventJobPlanned    = replay.KindJobPlanned
	EventJobCompleted  = replay.KindJobCompleted
	EventWindowSummary = replay.KindWindowSummary
	EventReplaySummary = replay.KindReplaySummary
	EventError         = replay.KindError
)

// ReplayOptions tunes the streaming side of a replay; the simulation physics
// come from SimConfig.
type ReplayOptions struct {
	// WindowSeconds is the sim-time width of window_summary events; zero
	// disables them.
	WindowSeconds float64
	// Observer receives every event; nil folds aggregates only.
	Observer ReplayObserver
	// MaxOpenTasks aborts the replay when in-flight (submitted, unsettled)
	// jobs hold more than this many tasks; zero means unlimited. Serving
	// layers use it to bound one stream's memory, which is proportional to
	// in-flight tasks.
	MaxOpenTasks int
}

// Replay executes the job stream incrementally on the discrete-event
// cluster, emitting job_planned, job_completed and window_summary events as
// they happen, and returns the same Report a one-shot Simulate of the stream
// would. Jobs are materialized at their arrival instants and released when
// their accounting settles, so memory tracks the in-flight job count, not
// the trace length. Cancelling ctx stops the replay between events.
func Replay(ctx context.Context, cfg SimConfig, jobs []SimJob, opts ReplayOptions) (Report, error) {
	cfg = cfg.withDefaults()
	rt, rjobs, release, err := buildReplay(cfg, jobs)
	if err != nil {
		return Report{}, err
	}
	defer release()
	sum, err := replay.Run(ctx, rt, rjobs, replay.Config{
		WindowSeconds: opts.WindowSeconds,
		MaxOpenTasks:  opts.MaxOpenTasks,
	}, opts.Observer)
	if err != nil {
		return Report{}, err
	}
	return reportFromSummary(sum, cfg), nil
}

// simulator is an engine and the cluster bound to it. A run grows the
// engine's buckets and slots and the cluster's wait ring to its stream's
// peak; replays recycle the pair through simulators, and a reset empties
// them but keeps that capacity. A pooled pair holds no reference into the
// run that ended, and a reset engine or cluster runs exactly as a new one.
type simulator struct {
	eng *sim.Engine
	cl  *cluster.Cluster
	// size is the cluster's configuration for the current run.
	size cluster.Config
}

var simulators = sync.Pool{New: func() any { return new(simulator) }}

// acquire readies s for a run on a cluster of the given size.
func (s *simulator) acquire(size cluster.Config) (err error) {
	if s.eng == nil {
		s.eng = sim.NewEngine()
		s.cl, err = cluster.New(s.eng, size)
	} else {
		err = s.cl.Reset(size)
	}
	s.size = size
	return err
}

// release empties s and returns it to the pool.
func (s *simulator) release() {
	s.eng.Reset()
	_ = s.cl.Reset(s.size) // cannot fail: acquire accepted this size
	simulators.Put(s)
}

// buildReplay assembles the engine, cluster, runtime and per-job specs and
// strategies for one run of the stream, and the func that hands the engine
// and cluster back for a later run once the runtime is done with them. cfg
// must already have defaults.
func buildReplay(cfg SimConfig, jobs []SimJob) (*mapreduce.Runtime, []replay.Job, func(), error) {
	if err := cfg.validate(jobs); err != nil {
		return nil, nil, nil, err
	}
	s := simulators.Get().(*simulator)
	if err := s.acquire(cluster.Config{Nodes: cfg.Nodes, SlotsPerNode: cfg.SlotsPerNode}); err != nil {
		return nil, nil, nil, err // s is dropped: a failed New leaves no cluster
	}
	rt := mapreduce.NewRuntime(s.eng, s.cl, mapreduce.Config{
		Seed:           cfg.Seed,
		ReportInterval: cfg.ReportInterval,
		ReportNoise:    cfg.ReportNoise,
	})

	rjobs := make([]replay.Job, len(jobs))
	for i, j := range jobs {
		spec, err := j.spec(i, cfg)
		if err != nil {
			s.release()
			return nil, nil, nil, err
		}
		strat, err := cfg.strategyFor(j)
		if err != nil {
			s.release()
			return nil, nil, nil, err
		}
		rjobs[i] = replay.Job{Spec: spec, Strategy: strat}
	}
	return rt, rjobs, s.release, nil
}

// reportFromSummary folds the stream aggregates into the one-shot report.
func reportFromSummary(sum ReplaySummary, cfg SimConfig) Report {
	hist := sum.RHistogram
	if len(hist) == 0 {
		hist = map[int]int{}
	}
	econ := optimize.Config(cfg.Econ)
	return Report{
		Jobs:            sum.Jobs,
		PoCD:            sum.PoCD,
		MeanMachineTime: sum.MeanMachineTime,
		MeanCost:        sum.MeanCost,
		Utility:         econ.UtilityFromMeasured(sum.PoCD, sum.MeanCost),
		RHistogram:      hist,
	}
}
