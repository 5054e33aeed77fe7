package chronos

import (
	"context"

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
	EventJobPlanned      = replay.KindJobPlanned
	EventJobCompleted    = replay.KindJobCompleted
	EventWindowSummary   = replay.KindWindowSummary
	EventReplaySummary   = replay.KindReplaySummary
	EventBudgetExhausted = replay.KindBudgetExhausted
	EventError           = replay.KindError
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
	rt, rjobs, err := buildReplay(cfg, jobs)
	if err != nil {
		return Report{}, err
	}
	sum, err := replay.Run(ctx, rt, rjobs, replay.Config{
		WindowSeconds: opts.WindowSeconds,
		MaxOpenTasks:  opts.MaxOpenTasks,
	}, opts.Observer)
	if err != nil {
		return Report{}, err
	}
	return reportFromSummary(sum, cfg), nil
}

// buildReplay assembles the engine, cluster, runtime and per-job specs and
// strategies for one run of the stream. cfg must already have defaults.
func buildReplay(cfg SimConfig, jobs []SimJob) (*mapreduce.Runtime, []replay.Job, error) {
	if err := cfg.validate(jobs); err != nil {
		return nil, nil, err
	}
	eng := sim.NewEngine()
	cl, err := cluster.New(eng, cluster.Config{Nodes: cfg.Nodes, SlotsPerNode: cfg.SlotsPerNode})
	if err != nil {
		return nil, nil, err
	}
	rt := mapreduce.NewRuntime(eng, cl, mapreduce.Config{
		Seed:           cfg.Seed,
		ReportInterval: cfg.ReportInterval,
		ReportNoise:    cfg.ReportNoise,
	})

	rjobs := make([]replay.Job, len(jobs))
	for i, j := range jobs {
		spec, err := j.spec(i, cfg)
		if err != nil {
			return nil, nil, err
		}
		strat, err := cfg.strategyFor(j)
		if err != nil {
			return nil, nil, err
		}
		rjobs[i] = replay.Job{Spec: spec, Strategy: strat}
	}
	return rt, rjobs, nil
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
