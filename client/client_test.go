package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"chronos"
	"chronos/api"
	"chronos/internal/ring"
	"chronos/internal/server"
	"chronos/internal/tenant"
)

// newFleet boots n in-process chronosd replicas wired into one ring and
// returns a fleet client over them.
func newFleet(t *testing.T, n int, mkCfg func(i int) server.Config) (*Client, []*server.Server) {
	t.Helper()
	servers := make([]*server.Server, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		servers[i] = server.New(mkCfg(i))
		ts := httptest.NewServer(servers[i].Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	for i := 0; i < n; i++ {
		if err := servers[i].SetRing(ring.Membership{Self: urls[i], Peers: urls}); err != nil {
			t.Fatalf("SetRing(replica %d): %v", i, err)
		}
	}
	c, err := NewFleet(urls)
	if err != nil {
		t.Fatal(err)
	}
	return c, servers
}

// TestFleetClientRoutesToOwner is the client package's core property: the
// client-side ring agrees with the server-side ring, so plan requests land
// on the owning replica directly and the servers never pay a forward hop.
func TestFleetClientRoutesToOwner(t *testing.T) {
	c, _ := newFleet(t, 3, func(i int) server.Config { return server.Config{} })
	ctx := context.Background()
	econ := chronos.Econ{Theta: 1e-4, UnitPrice: 1}
	for i := 0; i < 12; i++ {
		job := chronos.JobParams{
			Tasks: 10 + i, Deadline: 100, TMin: 10, Beta: 1.5,
			TauEst: 30, TauKill: 60,
		}
		if _, err := c.Plan(ctx, PlanRequest{Job: job, Econ: econ}); err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
	}
	// If the client mis-routed anything, some replica would report a
	// received forward or an outbound forward.
	for i, base := range c.Replicas() {
		text, err := metricsAt(ctx, c, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, metric := range []string{
			"chronosd_ring_received_forwards_total",
			"chronosd_ring_forwarded_total",
		} {
			for _, line := range strings.Split(text, "\n") {
				if strings.HasPrefix(line, metric) && !strings.HasSuffix(line, " 0") {
					t.Errorf("replica %d: client-side routing missed the owner: %s", i, line)
				}
			}
		}
	}
}

// TestFleetClientFailsOverFromDeadOwner: when the key's owner cannot be
// reached, the plan-keyed call is retried on one other replica, which answers
// it (solving locally, its own forward to the dead owner having failed).
func TestFleetClientFailsOverFromDeadOwner(t *testing.T) {
	listeners := make(map[string]*httptest.Server)
	servers := make([]*server.Server, 3)
	var urls []string
	for i := range servers {
		servers[i] = server.New(server.Config{})
		ts := httptest.NewServer(servers[i].Handler())
		t.Cleanup(ts.Close)
		listeners[ts.URL] = ts
		urls = append(urls, ts.URL)
	}
	for i, s := range servers {
		if err := s.SetRing(ring.Membership{Self: urls[i], Peers: urls}); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewFleet(urls)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := PlanRequest{
		Job:  chronos.JobParams{Tasks: 10, Deadline: 100, TMin: 10, Beta: 1.5, TauEst: 30, TauKill: 60},
		Econ: chronos.Econ{Theta: 1e-4, UnitPrice: 1},
	}
	targets := c.planTargets(req.Strategy, req.Job, req.Econ)
	if len(targets) != 2 || targets[0] == targets[1] {
		t.Fatalf("planTargets = %v, want the owner and one other replica", targets)
	}
	owner := targets[0]
	listeners[owner].Close()
	if _, err := c.Plan(ctx, req); err != nil {
		t.Fatalf("plan with the owner down: %v", err)
	}
	served := 0
	for _, base := range urls {
		if base == owner {
			continue
		}
		text, err := metricsAt(ctx, c, base)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(text, `chronosd_requests_total{endpoint="/v1/plan",code="200"} 1`) {
			served++
		}
	}
	if served != 1 {
		t.Errorf("%d of the two live replicas answered the plan, want exactly 1", served)
	}
}

// metricsAt fetches one specific replica's metrics (Metrics() round-robins,
// which the routing assertion must not depend on).
func metricsAt(ctx context.Context, c *Client, base string) (string, error) {
	solo := New(base, WithHTTPClient(c.http))
	return solo.Metrics(ctx)
}

// TestClientDecodesErrorEnvelope: an HTTP error (here an admit naming an
// unknown tenant) surfaces as *client.Error carrying the unified envelope's
// code and trace ID.
func TestClientDecodesErrorEnvelope(t *testing.T) {
	reg, err := tenant.NewRegistry(map[string]tenant.Limits{
		"tiny": {Budget: 1, Theta: 1e-4, UnitPrice: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Tenants: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := New(ts.URL)

	job := chronos.JobParams{Tasks: 10, Deadline: 100, TMin: 10, Beta: 1.5, TauEst: 30, TauKill: 60}
	_, err = c.Admit(context.Background(), AdmitRequest{Tenant: "nope", Job: job})
	var apiErr *Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *client.Error, got %v", err)
	}
	if apiErr.Status != http.StatusNotFound {
		t.Errorf("status = %d, want 404", apiErr.Status)
	}
	if apiErr.Code != api.CodeNotFound {
		t.Errorf("code = %q, want %q", apiErr.Code, api.CodeNotFound)
	}
	if apiErr.TraceID == "" {
		t.Error("trace ID missing from error envelope")
	}
	if !strings.Contains(apiErr.Message, "nope") {
		t.Errorf("message %q does not name the tenant", apiErr.Message)
	}
}

// TestClientAdmitAndBatch exercises the remaining typed endpoints against a
// solo replica.
func TestClientAdmitAndBatch(t *testing.T) {
	reg, err := tenant.NewRegistry(map[string]tenant.Limits{
		"team": {Budget: 5000, Theta: 1e-4, UnitPrice: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Tenants: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := New(ts.URL)
	ctx := context.Background()

	job := chronos.JobParams{Tasks: 10, Deadline: 100, TMin: 10, Beta: 1.5, TauEst: 30, TauKill: 60}
	dec, err := c.Admit(ctx, AdmitRequest{Tenant: "team", Job: job})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Admitted || dec.Plan == nil {
		t.Fatalf("admit = %+v, want admitted with a plan", dec)
	}

	batch, err := c.PlanBatch(ctx, BatchRequest{
		Jobs:   []BatchJob{{Job: job}, {Job: job, Strategy: "clone"}},
		Budget: 5000,
		Econ:   chronos.Econ{Theta: 1e-4, UnitPrice: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Plans) != 2 {
		t.Fatalf("batch plans = %d, want 2", len(batch.Plans))
	}
	if batch.TotalMachineTime > batch.Budget {
		t.Errorf("allocation %g exceeds budget %g", batch.TotalMachineTime, batch.Budget)
	}
}

// TestClientAdmitBatchFleet posts one admission batch to a 3-replica fleet:
// the client sends it whole to the tenant's pool owner, which decides every
// job (no forwards) and answers the results in input order with every job's
// plan; no other replica's pool moves.
func TestClientAdmitBatchFleet(t *testing.T) {
	mkReg := func() *tenant.Registry {
		reg, err := tenant.NewRegistry(map[string]tenant.Limits{
			"team": {Budget: 1e6, Theta: 1e-4, UnitPrice: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return reg
	}
	c, servers := newFleet(t, 3, func(i int) server.Config {
		return server.Config{Tenants: mkReg()}
	})
	ctx := context.Background()

	// Distinct job shapes spread plan keys over several owners.
	jobs := make([]AdmitBatchJob, 9)
	for i := range jobs {
		jobs[i] = AdmitBatchJob{Job: chronos.JobParams{
			Tasks: 10 + i, Deadline: 100, TMin: 10, Beta: 1.5,
			TauEst: 30, TauKill: 60,
		}}
	}
	resp, err := c.AdmitBatch(ctx, AdmitBatchRequest{Tenant: "team", Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(jobs) {
		t.Fatalf("results = %d, want %d", len(resp.Results), len(jobs))
	}
	if resp.Admitted != len(jobs) {
		t.Fatalf("admitted %d of %d under a huge budget", resp.Admitted, len(jobs))
	}
	for i, res := range resp.Results {
		if !res.Admitted || res.Plan == nil {
			t.Fatalf("job %d: %+v, want admitted with a plan", i, res)
		}
		// Each job shape has a distinct optimal plan; recompute it to prove
		// the results are in input order.
		want, err := chronos.OptimizeBest(jobs[i].Job, chronos.Econ{Theta: 1e-4, UnitPrice: 1})
		if err != nil {
			t.Fatal(err)
		}
		if *res.Plan != want {
			t.Errorf("job %d: plan %+v, want %+v — results reordered",
				i, *res.Plan, want)
		}
	}
	if resp.BudgetRemaining <= 0 || resp.BudgetRemaining >= 1e6 {
		t.Errorf("budgetRemaining = %g, want in (0, 1e6)", resp.BudgetRemaining)
	}

	// The client sent the batch to the owner, so no replica paid a forward
	// hop, and only the owner's pool moved.
	owner := c.tenantTargets("team")[0]
	for i, base := range c.Replicas() {
		text, err := metricsAt(ctx, c, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, "chronosd_ring_forwarded_total") && !strings.HasSuffix(line, " 0") {
				t.Errorf("replica %d forwarded an admit batch: %s", i, line)
			}
		}
		left := servers[i].Tenants().Get("team").Remaining()
		if want := base == owner; (left < 1e6) != want {
			t.Errorf("replica %d (owner: %v) has %g of its 1e6 pool left", i, want, left)
		}
	}
}

// TestFleetClientAdmitFailsOverFromDeadOwner: when the tenant's pool owner
// cannot be reached, the admit is retried on one other replica, which
// refuses it with budget_exhausted instead of spending a pool of its own.
func TestFleetClientAdmitFailsOverFromDeadOwner(t *testing.T) {
	reg := func() *tenant.Registry {
		reg, err := tenant.NewRegistry(map[string]tenant.Limits{"team": {Budget: 1e6}})
		if err != nil {
			t.Fatal(err)
		}
		return reg
	}
	listeners := make(map[string]*httptest.Server)
	servers := make([]*server.Server, 3)
	var urls []string
	for i := range servers {
		servers[i] = server.New(server.Config{Tenants: reg()})
		ts := httptest.NewServer(servers[i].Handler())
		t.Cleanup(ts.Close)
		listeners[ts.URL] = ts
		urls = append(urls, ts.URL)
	}
	for i, s := range servers {
		if err := s.SetRing(ring.Membership{Self: urls[i], Peers: urls}); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewFleet(urls)
	if err != nil {
		t.Fatal(err)
	}
	owner := c.tenantTargets("team")[0]
	listeners[owner].Close()
	job := chronos.JobParams{Tasks: 10, Deadline: 100, TMin: 10, Beta: 1.5, TauEst: 30, TauKill: 60}
	dec, err := c.Admit(context.Background(), AdmitRequest{Tenant: "team", Job: job})
	if err != nil {
		t.Fatalf("admit with the owner down: %v", err)
	}
	if dec.Admitted || dec.Reason != api.ReasonBudgetExhausted {
		t.Fatalf("admit with the owner down = %+v, want refused with %q", dec, api.ReasonBudgetExhausted)
	}
	for i, s := range servers {
		if urls[i] != owner && s.Tenants().Get("team").Remaining() != 1e6 {
			t.Errorf("survivor %d spent its copy of the pool", i)
		}
	}
}

func TestNewPanicsOnEmptyURL(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal(`New("   ") returned instead of panicking`)
		}
	}()
	_ = New("   ")
}
