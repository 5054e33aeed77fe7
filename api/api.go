// Package api declares chronosd's /v1 JSON contract, once: the request and
// response bodies of the six /v1 endpoints, the error envelope with its
// codes, the two admission-control reasons, and (tradeoff.go) the query
// parameters of GET /v1/tradeoff. The server decodes and encodes these types
// directly, the client package and internal/hotjson alias them, so a field
// that moves here moves for every party at compile time. The job, economics,
// plan, simulation and replay-event shapes inside the bodies are the root
// chronos package's own types.
//
// Only the admission bodies (AdmitRequest, AdmitBatchRequest) name a tenant:
// POST /v1/admit and /v1/admit/batch are the one way to spend a tenant's
// budget. Every POST body is strict: a key its type does not declare is a
// 400 "json: unknown field", never silently ignored.
package api

import "chronos"

// PlanRequest is the body of POST /v1/plan: one job's optimal speculation
// plan.
type PlanRequest struct {
	Job  chronos.JobParams `json:"job"`
	Econ chronos.Econ      `json:"econ"`
	// Strategy pins one Chronos strategy; empty or "best" optimizes all
	// three and answers the utility winner.
	Strategy string `json:"strategy,omitempty"`
}

// PlanResponse answers POST /v1/plan.
type PlanResponse struct {
	Plan   chronos.Plan `json:"plan"`
	Cached bool         `json:"cached"`
}

// BatchJob is one member of a shared-budget batch.
type BatchJob struct {
	// Strategy pins the job's strategy; empty or "best" lets the server
	// pick the per-job utility winner before the budget allocation.
	Strategy string            `json:"strategy,omitempty"`
	Job      chronos.JobParams `json:"job"`
	// RMin is the job's minimum acceptable PoCD inside the allocator.
	// Zero falls back to the batch econ's rmin.
	RMin float64 `json:"rmin,omitempty"`
}

// BatchRequest is the body of POST /v1/plan/batch: a job set planned under
// one shared machine-time budget.
type BatchRequest struct {
	Jobs []BatchJob `json:"jobs"`
	// Budget is the shared machine-time budget B. Required and positive.
	Budget float64 `json:"budget"`
	// Econ drives per-job strategy selection for jobs without a pinned
	// strategy. Ignored (may be zero) when every job pins one.
	Econ chronos.Econ `json:"econ,omitempty"`
}

// BatchPlan is one job's slice of a batch allocation: the strategy it was
// planned under, then the allocator's r, pocd and machineTime.
type BatchPlan struct {
	Strategy chronos.Strategy `json:"strategy"`
	chronos.BatchPlan
}

// BatchResponse answers POST /v1/plan/batch.
type BatchResponse struct {
	Plans []BatchPlan `json:"plans"`
	// TotalMachineTime is the expected machine time of the allocation;
	// always <= budget.
	TotalMachineTime float64 `json:"totalMachineTime"`
	// Budget is the budget the allocation ran against: the request's.
	Budget float64 `json:"budget"`
}

// AdmitRequest is the body of POST /v1/admit: can this tenant afford a
// feasible speculation plan for the arriving job?
type AdmitRequest struct {
	// Tenant names the budget pool to admit against. Required.
	Tenant string            `json:"tenant"`
	Job    chronos.JobParams `json:"job"`
	// Strategy optionally pins one Chronos strategy; empty or "best"
	// optimizes all three.
	Strategy string `json:"strategy,omitempty"`
	// Econ overrides the tenant's planning defaults field by field; zero
	// fields fall back to the pool's defaults.
	Econ chronos.Econ `json:"econ,omitempty"`
}

// AdmitResponse answers POST /v1/admit.
type AdmitResponse struct {
	Admitted bool   `json:"admitted"`
	Tenant   string `json:"tenant"`
	// Plan is the admitted speculation plan, already debited. Absent on
	// rejection.
	Plan *chronos.Plan `json:"plan,omitempty"`
	// Reason is ReasonBudgetExhausted or ReasonInfeasible. Absent on
	// admission.
	Reason string `json:"reason,omitempty"`
	// BudgetRemaining is the pool's machine-time level after the decision.
	BudgetRemaining float64 `json:"budgetRemaining"`
}

// AdmitBatchJob is one arriving job in a batch admission.
type AdmitBatchJob struct {
	Job chronos.JobParams `json:"job"`
	// Strategy optionally pins one Chronos strategy; empty or "best"
	// optimizes all three.
	Strategy string `json:"strategy,omitempty"`
}

// AdmitBatchRequest is the body of POST /v1/admit/batch: admission decisions
// for several jobs against one tenant's budget.
type AdmitBatchRequest struct {
	// Tenant names the budget pool to admit against. Required.
	Tenant string `json:"tenant"`
	// Jobs are the arriving jobs, decided independently but debited once.
	Jobs []AdmitBatchJob `json:"jobs"`
	// Econ overrides the tenant's planning defaults field by field for every
	// job in the batch; zero fields fall back to the pool's defaults.
	Econ chronos.Econ `json:"econ,omitempty"`
}

// AdmitBatchResult is one job's decision, in request order.
type AdmitBatchResult struct {
	Admitted bool `json:"admitted"`
	// Plan is the admitted speculation plan, already debited. Absent on
	// rejection.
	Plan *chronos.Plan `json:"plan,omitempty"`
	// Reason is ReasonBudgetExhausted or ReasonInfeasible. Absent on
	// admission.
	Reason string `json:"reason,omitempty"`
}

// AdmitBatchResponse answers POST /v1/admit/batch.
type AdmitBatchResponse struct {
	Tenant  string             `json:"tenant"`
	Results []AdmitBatchResult `json:"results"`
	// Admitted counts the accepted jobs (the true entries in Results).
	Admitted int `json:"admitted"`
	// BudgetRemaining is the pool's machine-time level after the batch's
	// single debit.
	BudgetRemaining float64 `json:"budgetRemaining"`
}

// Structured rejection reasons reported by POST /v1/admit and
// /v1/admit/batch, and used as the reason label on
// chronosd_tenant_rejects_total.
const (
	// ReasonBudgetExhausted: the tenant's ledger cannot pay for any
	// feasible plan right now. With a refilling pool the job may be
	// admittable later.
	ReasonBudgetExhausted = "budget_exhausted"
	// ReasonInfeasible: no attempt count reaches the tenant's required
	// PoCD — the deadline cannot be met at RMin no matter the budget.
	ReasonInfeasible = "infeasible_deadline"
)

// TradeoffPoint is one r on the PoCD/cost frontier.
type TradeoffPoint struct {
	R           int     `json:"r"`
	PoCD        float64 `json:"pocd"`
	MachineTime float64 `json:"machineTime"`
	Cost        float64 `json:"cost"`
	// Utility is null when the point is below RMin (utility -Inf).
	Utility *float64 `json:"utility"`
}

// TradeoffResponse answers GET /v1/tradeoff.
type TradeoffResponse struct {
	Strategy chronos.Strategy `json:"strategy"`
	Points   []TradeoffPoint  `json:"points"`
}

// ReplayRequest is the body of POST /v1/replay, answered with an NDJSON
// stream of chronos.ReplayEvent. The job stream comes from exactly one of
// Jobs (an uploaded trace), Trace (a server-side synthetic Google-like
// trace), or Benchmark (a stream of one of the paper's testbed workloads),
// so long online-setting studies need not upload anything.
type ReplayRequest struct {
	// Config shapes the simulation (strategy, cluster, seed, ...): the
	// chronos.SimConfig a library Simulate or Replay call takes.
	Config    chronos.SimConfig    `json:"config"`
	Jobs      []chronos.SimJob     `json:"jobs,omitempty"`
	Trace     *chronos.TraceConfig `json:"trace,omitempty"`
	Benchmark *ReplayBenchmark     `json:"benchmark,omitempty"`
	// WindowSeconds is the sim-time width of window_summary events; zero
	// disables them.
	WindowSeconds float64 `json:"windowSeconds,omitempty"`
}

// ReplayBenchmark expands one named benchmark into a uniform job stream.
type ReplayBenchmark struct {
	// Name is one of the paper's workloads (Sort, SecondarySort, TeraSort,
	// WordCount), case-insensitive.
	Name string `json:"name"`
	// Jobs and Tasks size the stream; SpacingSeconds separates arrivals.
	Jobs           int     `json:"jobs"`
	Tasks          int     `json:"tasks"`
	SpacingSeconds float64 `json:"spacingSeconds,omitempty"`
}

// ErrorResponse is the error envelope every /v1 endpoint answers with:
// human-readable error text, a stable machine-readable code, and the
// request's trace ID so a client-side error report can be joined to the
// server-side logs and /debug/traces without extra plumbing.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code is one of the Code constants.
	Code string `json:"code,omitempty"`
	// TraceID is the request's trace ID (the X-Chronosd-Trace-Id value).
	TraceID string `json:"traceId,omitempty"`
}

// Stable error codes carried in ErrorResponse.Code.
const (
	CodeBadRequest      = "bad_request"
	CodeNotFound        = "not_found"
	CodePayloadTooLarge = "payload_too_large"
	CodeUnprocessable   = "unprocessable"
	CodeUnavailable     = "unavailable"
	CodeInternal        = "internal"
)
