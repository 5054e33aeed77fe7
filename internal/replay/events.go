package replay

// Kind names one streamed replay event. The string values are the wire
// vocabulary of the NDJSON stream served by POST /v1/replay and printed by
// the CLIs' event modes.
type Kind string

// The event catalog. The first four are emitted by the replay core itself;
// the last two are reserved for the serving layer, which shares this wire
// format for its own stream entries.
const (
	// KindJobPlanned fires when a job arrives and its strategy has chosen
	// a speculation plan (Outcome is absent; Job.R carries the chosen r for
	// the Chronos strategies).
	KindJobPlanned Kind = "job_planned"
	// KindJobCompleted fires when a job's accounting settles: every task is
	// done and no attempt still occupies a container, so machine time and
	// cost are final. Outcome carries the result; PoCD is the running
	// deadline-hit fraction over settled jobs.
	KindJobCompleted Kind = "job_completed"
	// KindWindowSummary fires at sim-time window boundaries (windows with
	// no submissions or completions are coalesced away).
	KindWindowSummary Kind = "window_summary"
	// KindReplaySummary is the final event of a successful replay.
	KindReplaySummary Kind = "replay_summary"
	// KindBudgetExhausted is emitted by the serving layer when a tenant
	// pool can no longer cover a completed job's machine time; the stream
	// ends after it.
	KindBudgetExhausted Kind = "budget_exhausted"
	// KindError is emitted by the serving layer when a replay fails after
	// the stream has started (the HTTP status is already written).
	KindError Kind = "error"
)

// Event is one entry of the replay stream. Exactly one of the payload
// pointers is set, matching Kind.
type Event struct {
	// Kind discriminates the payload.
	Kind Kind `json:"event"`
	// Seq numbers events within one replay, from 0, with no gaps.
	Seq uint64 `json:"seq"`
	// Time is the simulation clock at emission (seconds).
	Time float64 `json:"time"`

	// Job describes the subject job (job_planned, job_completed).
	Job *JobEvent `json:"job,omitempty"`
	// Outcome carries the final accounting (job_completed only).
	Outcome *Outcome `json:"outcome,omitempty"`
	// PoCD is the running deadline-hit fraction over settled jobs
	// (job_completed only).
	PoCD *float64 `json:"pocd,omitempty"`
	// Window carries the periodic aggregates (window_summary only).
	Window *Window `json:"window,omitempty"`
	// Summary carries the final aggregates (replay_summary only).
	Summary *Summary `json:"summary,omitempty"`

	// TraceID is the serving request's trace ID, stamped by the serving
	// layer on the final replay_summary so a streamed replay correlates
	// with the server's structured logs and /debug/traces entry. Absent on
	// library and CLI replays.
	TraceID string `json:"traceId,omitempty"`

	// Tenant, Needed and Remaining describe a ledger failure
	// (budget_exhausted only, set by the serving layer).
	Tenant    string   `json:"tenant,omitempty"`
	Needed    float64  `json:"needed,omitempty"`
	Remaining *float64 `json:"remaining,omitempty"`
	// Error is the failure message (error events only).
	Error string `json:"error,omitempty"`
}

// JobEvent identifies one job of the stream.
type JobEvent struct {
	// ID is the job's index in the submitted stream.
	ID int `json:"id"`
	// Strategy is the speculation policy driving the job.
	Strategy string `json:"strategy"`
	// Tasks and ReduceTasks are the stage widths.
	Tasks       int `json:"tasks"`
	ReduceTasks int `json:"reduceTasks,omitempty"`
	// Arrival is the submission instant; Deadline is relative to it.
	Arrival  float64 `json:"arrival"`
	Deadline float64 `json:"deadline"`
	// R is the optimizer-chosen number of extra attempts for the map stage;
	// absent for strategies that do not plan r (the Hadoop and Mantri
	// baselines).
	R *int `json:"r,omitempty"`
	// ReduceR is the reduce-stage r, when a reduce stage was planned.
	ReduceR *int `json:"reduceR,omitempty"`
}

// Outcome is the settled accounting of one completed job.
type Outcome struct {
	// Finish is the completion instant (the settle instant is Event.Time,
	// which can be later when redundant attempts outlive completion).
	Finish float64 `json:"finish"`
	// MetDeadline reports whether Finish beat Arrival + Deadline.
	MetDeadline bool `json:"metDeadline"`
	// Lateness is Finish minus the absolute deadline; negative means early.
	Lateness float64 `json:"lateness"`
	// MachineTime is the job's total container occupancy (seconds).
	MachineTime float64 `json:"machineTime"`
	// Cost is the machine time at the job's unit price.
	Cost float64 `json:"cost"`
}

// Window is one periodic aggregate over the stream so far.
type Window struct {
	// Index is the window ordinal: the window spans
	// (Index*width, (Index+1)*width] in sim time.
	Index int `json:"index"`
	// Start and End bound the window (End is the boundary just reached).
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Completed counts jobs settled inside this window.
	Completed int `json:"completed"`
	// Running holds the cumulative aggregates at the boundary.
	Running Summary `json:"running"`
}

// Summary aggregates the stream: the streaming counterpart of the one-shot
// simulation report. PoCD, MeanMachineTime and MeanCost are over settled
// jobs.
type Summary struct {
	// Jobs is the number of settled jobs; Submitted the number admitted to
	// the cluster so far.
	Jobs      int `json:"jobs"`
	Submitted int `json:"submitted"`
	// Met counts jobs that finished before their deadline.
	Met int `json:"met"`
	// PoCD is Met / Jobs.
	PoCD float64 `json:"pocd"`
	// MeanMachineTime and MeanCost are per-settled-job averages.
	MeanMachineTime float64 `json:"meanMachineTime"`
	MeanCost        float64 `json:"meanCost"`
	// RHistogram counts optimizer-chosen map-stage r values. Populated on
	// the final replay_summary only (window summaries stay light).
	RHistogram map[int]int `json:"rHistogram,omitempty"`
}

// Observer receives every event of a replay, in emission order, on the
// replay goroutine. Returning a non-nil error aborts the replay, which
// returns that error — the serving layer uses this to stop promptly when the
// HTTP client disconnects mid-stream.
type Observer interface {
	OnEvent(*Event) error
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(*Event) error

// OnEvent implements Observer.
func (f ObserverFunc) OnEvent(e *Event) error { return f(e) }
