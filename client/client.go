// Package client is the importable Go client for chronosd. It speaks every
// /v1 endpoint with typed requests and responses, decodes the unified error
// envelope into *client.Error, and — given the fleet's replica URLs — places
// requests locally on the same rendezvous-hash ring the servers use, so a
// single-job plan goes straight to the owner of its plan key, and an admit
// or admit batch straight to its tenant's pool owner, instead of paying a
// server-side forward hop.
//
// Client-side routing is a fast path, not a correctness requirement: the
// servers verify ownership on every request and forward at most one hop, so
// a stale fleet view merely costs that hop. Keyless endpoints (plan batch,
// tradeoff, replay) are spread round-robin across the fleet.
//
// Admit and AdmitBatch are the only calls that spend a tenant's budget; a
// rejection there is a 200 decision carrying a reason, not an *Error.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"

	"chronos"
	"chronos/api"
	"chronos/internal/plankey"
	"chronos/internal/ring"
)

// Client talks to one chronosd replica or a fleet of them. Safe for
// concurrent use.
type Client struct {
	replicas []string
	ring     *ring.Ring // nil for a single replica (no client-side routing)
	http     *http.Client
	rr       atomic.Uint64
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (timeouts, proxies, test
// doubles). The default is http.DefaultClient.
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// New returns a client for a single chronosd instance at baseURL (e.g.
// "http://localhost:8080"). It panics if baseURL is empty or whitespace —
// a construction-time configuration bug; use NewFleet to handle the error
// instead.
func New(baseURL string, opts ...Option) *Client {
	c, err := NewFleet([]string{baseURL}, opts...)
	if err != nil {
		panic(fmt.Sprintf("client.New(%q): %v", baseURL, err))
	}
	return c
}

// NewFleet returns a client that routes across a sharded fleet: plan-keyed
// requests go to the ring owner of their key, everything else round-robins.
// The replica URLs must be the fleet's advertised base URLs (the servers'
// -self values), or ownership will not line up and every request pays a
// forward hop.
func NewFleet(replicas []string, opts ...Option) (*Client, error) {
	cleaned := make([]string, 0, len(replicas))
	for _, r := range replicas {
		if r = ring.NormalizeURL(r); r != "" {
			cleaned = append(cleaned, r)
		}
	}
	if len(cleaned) == 0 {
		return nil, errors.New("client: at least one replica URL is required")
	}
	c := &Client{replicas: cleaned, http: http.DefaultClient}
	if len(cleaned) > 1 {
		c.ring = ring.New(cleaned)
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// Replicas returns the configured replica base URLs.
func (c *Client) Replicas() []string {
	out := make([]string, len(c.replicas))
	copy(out, c.replicas)
	return out
}

// Error is a non-2xx chronosd answer, decoded from the unified error
// envelope. TraceID joins the failure to the server's logs and
// /debug/traces.
type Error struct {
	Status  int    // HTTP status code
	Code    string // stable machine-readable class ("bad_request", ...)
	TraceID string
	Message string
}

func (e *Error) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("chronosd: %s (%s, HTTP %d)", e.Message, e.Code, e.Status)
	}
	return fmt.Sprintf("chronosd: %s (HTTP %d)", e.Message, e.Status)
}

// The wire types, declared once in package api and named here as the SDK
// always has.
type (
	PlanRequest        = api.PlanRequest
	PlanResponse       = api.PlanResponse
	BatchJob           = api.BatchJob
	BatchRequest       = api.BatchRequest
	BatchPlan          = api.BatchPlan
	BatchResponse      = api.BatchResponse
	AdmitRequest       = api.AdmitRequest
	AdmitResponse      = api.AdmitResponse
	AdmitBatchJob      = api.AdmitBatchJob
	AdmitBatchRequest  = api.AdmitBatchRequest
	AdmitBatchResult   = api.AdmitBatchResult
	AdmitBatchResponse = api.AdmitBatchResponse
	TradeoffPoint      = api.TradeoffPoint
	TradeoffResponse   = api.TradeoffResponse
	ReplayRequest      = api.ReplayRequest
	ReplayTrace        = chronos.TraceConfig
	ReplayBenchmark    = api.ReplayBenchmark
)

// --- endpoint methods -----------------------------------------------------

// Plan asks for one job's plan, routed client-side to the ring owner of its
// plan key, failing over to one other replica on transport errors.
func (c *Client) Plan(ctx context.Context, req PlanRequest) (*PlanResponse, error) {
	return post[PlanResponse](ctx, c, c.planTargets(req.Strategy, req.Job, req.Econ), "/v1/plan", req)
}

// Admit asks for an online admission decision, routed client-side to the
// tenant's pool owner, where the servers decide every admit, failing over to
// one other replica on transport errors.
func (c *Client) Admit(ctx context.Context, req AdmitRequest) (*AdmitResponse, error) {
	return post[AdmitResponse](ctx, c, c.tenantTargets(req.Tenant), "/v1/admit", req)
}

// AdmitBatch asks for admission decisions for several same-tenant jobs: one
// POST, routed and failed over like Admit. The tenant's pool owner decides
// the jobs in order and settles the accepted set in a single ledger debit.
func (c *Client) AdmitBatch(ctx context.Context, req AdmitBatchRequest) (*AdmitBatchResponse, error) {
	return post[AdmitBatchResponse](ctx, c, c.tenantTargets(req.Tenant), "/v1/admit/batch", req)
}

// post posts req to the first of targets, retrying on the next after a
// transport error. An HTTP-level error (*Error) is a live replica's answer
// and is returned as-is; only a replica we could not talk to at all triggers
// failover, and a dead context stops the walk (the caller gave up, not the
// replica).
func post[T any](ctx context.Context, c *Client, targets []string, path string, req any) (resp *T, err error) {
	for _, base := range targets {
		resp, err = roundTrip[T](ctx, c, base+path, req)
		var httpErr *Error
		if err == nil || errors.As(err, &httpErr) || ctx.Err() != nil {
			break
		}
	}
	return resp, err
}

// planTargets resolves the replicas for a plan-keyed request in preference
// order: the ring owner of the key, then any one other replica, which
// answers correctly whatever it is (one forward hop, or a local solve when
// the owner is down). Requests whose key cannot be computed (unknown
// strategy name — the server will answer 400 anyway) and single-replica
// clients get one target.
func (c *Client) planTargets(strategy string, job chronos.JobParams, econ chronos.Econ) []string {
	if c.ring == nil {
		return c.replicas[:1:1]
	}
	strat, best, ok := plankey.ParseStrategy(strategy)
	if !ok {
		return []string{c.next()}
	}
	name := ""
	if !best {
		name = strat.String()
	}
	owner, _ := c.ring.Owner(plankey.Key(name, job, econ))
	return c.ownerFirst(owner)
}

// tenantTargets resolves the replicas for an admit in preference order: the
// tenant's pool owner, then any one other replica, which relays to the owner
// (or, while the owner is unreachable, refuses with budget_exhausted).
func (c *Client) tenantTargets(tenant string) []string {
	if c.ring == nil {
		return c.replicas[:1:1]
	}
	owner, _ := c.ring.TenantOwner(tenant)
	return c.ownerFirst(owner)
}

// ownerFirst returns owner followed by one other replica, the round-robin
// cursor's next.
func (c *Client) ownerFirst(owner string) []string {
	second := c.next()
	if second == owner {
		second = c.next()
	}
	return []string{owner, second}
}

// PlanBatch plans a shared-budget batch on the next replica in round-robin
// order (a batch spans many plan keys, so there is no single owner).
func (c *Client) PlanBatch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	return roundTrip[BatchResponse](ctx, c, c.next()+"/v1/plan/batch", req)
}

// Tradeoff fetches the PoCD/cost frontier of one strategy for a job. maxR
// caps the curve; zero takes the server default.
func (c *Client) Tradeoff(ctx context.Context, strategy string, job chronos.JobParams, econ chronos.Econ, maxR int) (*TradeoffResponse, error) {
	q := api.TradeoffQuery{Strategy: strategy, Job: job, Econ: econ, MaxR: maxR}
	return roundTrip[TradeoffResponse](ctx, c, c.next()+"/v1/tradeoff?"+q.Values().Encode(), nil)
}

// Replay streams one trace-driven simulation, invoking onEvent for every
// NDJSON event in order (a nil onEvent skips the callback), and returns the
// stream's final replay_summary. An error event ends the stream as an
// error; onEvent returning an error aborts it.
func (c *Client) Replay(ctx context.Context, req ReplayRequest, onEvent func(*chronos.ReplayEvent) error) (*chronos.ReplaySummary, error) {
	httpResp, err := c.send(ctx, c.next()+"/v1/replay", req)
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	var summary *chronos.ReplaySummary
	dec := json.NewDecoder(httpResp.Body)
	for {
		var ev chronos.ReplayEvent
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if ev.Kind == chronos.EventError {
			return nil, fmt.Errorf("chronosd: replay: %s", ev.Error)
		}
		if ev.Kind == chronos.EventReplaySummary {
			summary = ev.Summary
		}
		if onEvent != nil {
			if err := onEvent(&ev); err != nil {
				return nil, err
			}
		}
	}
	if summary == nil {
		return nil, errors.New("chronosd: replay stream ended without a summary")
	}
	return summary, nil
}

// Metrics fetches one replica's Prometheus exposition text (the first
// replica unless the round-robin cursor says otherwise).
func (c *Client) Metrics(ctx context.Context) (string, error) {
	httpResp, err := c.send(ctx, c.next()+"/metrics", nil)
	if err != nil {
		return "", err
	}
	defer httpResp.Body.Close()
	raw, err := io.ReadAll(httpResp.Body)
	if err != nil {
		return "", err
	}
	return string(raw), nil
}

// --- transport ------------------------------------------------------------

// next returns the round-robin replica for keyless requests.
func (c *Client) next() string {
	if len(c.replicas) == 1 {
		return c.replicas[0]
	}
	return c.replicas[(c.rr.Add(1)-1)%uint64(len(c.replicas))]
}

// send is the one request path: it POSTs in as JSON (or GETs, when in is
// nil) and hands back the 200 response, whose body the caller reads and
// closes; any other status comes back as *Error.
func (c *Client) send(ctx context.Context, url string, in any) (*http.Response, error) {
	method, body := http.MethodGet, io.Reader(nil)
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		method, body = http.MethodPost, bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	return resp, nil
}

// roundTrip is send for the endpoints that answer one JSON document, a T.
func roundTrip[T any](ctx context.Context, c *Client, url string, in any) (*T, error) {
	resp, err := c.send(ctx, url, in)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := new(T)
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return nil, err
	}
	return out, nil
}

// decodeError turns a non-200 answer into *Error, tolerating non-envelope
// bodies (proxies, panics) by carrying the raw text.
func decodeError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	e := &Error{Status: resp.StatusCode, Message: strings.TrimSpace(string(raw))}
	var env api.ErrorResponse
	if err := json.Unmarshal(raw, &env); err == nil && env.Error != "" {
		e.Message, e.Code, e.TraceID = env.Error, env.Code, env.TraceID
	}
	return e
}
