package server

import (
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"chronos"
	"chronos/api"
	"chronos/internal/tenant"
)

// testRegistry builds a single-pool registry with a fixed (non-refilling)
// budget.
func testRegistry(t testing.TB, name string, budget float64) *tenant.Registry {
	t.Helper()
	reg, err := tenant.NewRegistry(map[string]tenant.Limits{
		name: {Budget: budget},
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// bestPlanMachineTime is the machine time of the unconstrained optimal plan
// for testJob/testEcon, used to size pool budgets.
func bestPlanMachineTime(t *testing.T) float64 {
	t.Helper()
	plan, err := chronos.OptimizeBest(testJob(), testEcon())
	if err != nil {
		t.Fatal(err)
	}
	return plan.MachineTime
}

func TestAdmitEndpoint(t *testing.T) {
	mt := bestPlanMachineTime(t)
	// Room for exactly two optimal plans plus change that cannot cover a
	// third at r=0.
	r0, err := chronos.ExpectedMachineTime(chronos.Clone, testJob(), 0)
	if err != nil {
		t.Fatal(err)
	}
	budget := 2*mt + r0/2
	_, ts := newTestServer(t, Config{Tenants: testRegistry(t, "etl", budget)})

	req := api.AdmitRequest{Tenant: "etl", Job: testJob(), Econ: testEcon()}
	var admitted float64
	admits := 0
	for i := 0; i < 10; i++ {
		resp := postJSON(t, ts.URL+"/v1/admit", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status = %d, want 200", i, resp.StatusCode)
		}
		got := decodeBody[api.AdmitResponse](t, resp)
		if got.Tenant != "etl" {
			t.Fatalf("tenant = %q, want etl", got.Tenant)
		}
		if !got.Admitted {
			if got.Reason != api.ReasonBudgetExhausted {
				t.Fatalf("request %d rejected with reason %q, want %q",
					i, got.Reason, api.ReasonBudgetExhausted)
			}
			if got.Plan != nil {
				t.Fatal("rejection carried a plan")
			}
			break
		}
		if got.Plan == nil {
			t.Fatalf("request %d admitted without a plan", i)
		}
		if got.Plan.MachineTime > budget-admitted {
			t.Fatalf("request %d plan costs %v with only %v left",
				i, got.Plan.MachineTime, budget-admitted)
		}
		admitted += got.Plan.MachineTime
		admits++
		if got.BudgetRemaining < 0 {
			t.Fatalf("budgetRemaining went negative: %v", got.BudgetRemaining)
		}
	}
	if admits < 2 {
		t.Fatalf("only %d admissions before exhaustion, want >= 2", admits)
	}
	if admitted > budget {
		t.Fatalf("over-commit: admitted %v from a budget of %v", admitted, budget)
	}
}

// TestAdmitSqueezedPlan verifies the capped solve: with a remainder between
// the r=0 cost and the unconstrained optimum, admission succeeds with a
// cheaper, affordable plan instead of rejecting.
func TestAdmitSqueezedPlan(t *testing.T) {
	plan, err := chronos.OptimizeBest(testJob(), testEcon())
	if err != nil {
		t.Fatal(err)
	}
	if plan.R == 0 {
		t.Skip("optimal plan already r=0; nothing to squeeze")
	}
	r0, err := chronos.ExpectedMachineTime(plan.Strategy, testJob(), 0)
	if err != nil {
		t.Fatal(err)
	}
	budget := (r0 + plan.MachineTime) / 2
	_, ts := newTestServer(t, Config{Tenants: testRegistry(t, "etl", budget)})

	got := decodeBody[api.AdmitResponse](t, postJSON(t, ts.URL+"/v1/admit",
		api.AdmitRequest{Tenant: "etl", Job: testJob(), Econ: testEcon()}))
	if !got.Admitted {
		t.Fatalf("want squeezed admission, got rejection (%s)", got.Reason)
	}
	if got.Plan.MachineTime > budget {
		t.Errorf("squeezed plan costs %v, budget %v", got.Plan.MachineTime, budget)
	}
	if got.Plan.Utility > plan.Utility {
		t.Errorf("squeezed utility %v exceeds unconstrained %v", got.Plan.Utility, plan.Utility)
	}
}

func TestAdmitTenantDefaults(t *testing.T) {
	reg, err := tenant.NewRegistry(map[string]tenant.Limits{
		"sla": {Budget: 1e6, Theta: 1e-4, UnitPrice: 1, RMin: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Tenants: reg})

	// No econ in the request: the pool's defaults must apply, including
	// its PoCD floor.
	got := decodeBody[api.AdmitResponse](t, postJSON(t, ts.URL+"/v1/admit",
		api.AdmitRequest{Tenant: "sla", Job: testJob()}))
	if !got.Admitted {
		t.Fatalf("want admission under tenant defaults, got %q", got.Reason)
	}
	if got.Plan.PoCD <= 0.5 {
		t.Errorf("plan PoCD %v at or below the tenant's RMin 0.5", got.Plan.PoCD)
	}
}

func TestAdmitInfeasible(t *testing.T) {
	_, ts := newTestServer(t, Config{Tenants: testRegistry(t, "etl", 1e9)})
	econ := testEcon()
	econ.RMin = 0.999999999
	impossible := chronos.JobParams{
		Tasks: 10, Deadline: 10.5, TMin: 10, Beta: 1.5, TauEst: 3, TauKill: 6,
	}
	got := decodeBody[api.AdmitResponse](t, postJSON(t, ts.URL+"/v1/admit",
		api.AdmitRequest{Tenant: "etl", Job: impossible, Econ: econ}))
	if got.Admitted {
		t.Fatal("impossible job admitted")
	}
	if got.Reason != api.ReasonInfeasible {
		t.Errorf("reason = %q, want %q", got.Reason, api.ReasonInfeasible)
	}
}

func TestAdmitErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Tenants: testRegistry(t, "etl", 100)})

	t.Run("missing tenant", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/admit", api.AdmitRequest{Job: testJob(), Econ: testEcon()})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})

	t.Run("unknown tenant", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/admit",
			api.AdmitRequest{Tenant: "nope", Job: testJob(), Econ: testEcon()})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("status = %d, want 404", resp.StatusCode)
		}
	})

	t.Run("unknown strategy", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/admit",
			api.AdmitRequest{Tenant: "etl", Job: testJob(), Econ: testEcon(), Strategy: "dolly"})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})

	t.Run("invalid params", func(t *testing.T) {
		bad := testJob()
		bad.Beta = 0.5
		resp := postJSON(t, ts.URL+"/v1/admit",
			api.AdmitRequest{Tenant: "etl", Job: bad, Econ: testEcon()})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})

	t.Run("no tenants configured", func(t *testing.T) {
		_, bare := newTestServer(t, Config{})
		resp := postJSON(t, bare.URL+"/v1/admit",
			api.AdmitRequest{Tenant: "etl", Job: testJob(), Econ: testEcon()})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("status = %d, want 404", resp.StatusCode)
		}
	})
}

// TestAdmitConcurrentNoOvercommit hammers /v1/admit from many goroutines
// against one nearly-exhausted pool and asserts the ledger never grants
// more machine time than the budget holds. Run with -race in CI.
func TestAdmitConcurrentNoOvercommit(t *testing.T) {
	mt := bestPlanMachineTime(t)
	budget := 3.4 * mt // a handful of admissions, then contention
	srv, ts := newTestServer(t, Config{Tenants: testRegistry(t, "etl", budget)})

	const goroutines = 16
	const perG = 4
	var (
		mu       sync.Mutex
		admitted float64
		admits   int
		rejects  int
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				resp := postJSON(t, ts.URL+"/v1/admit",
					api.AdmitRequest{Tenant: "etl", Job: testJob(), Econ: testEcon()})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status = %d, want 200", resp.StatusCode)
					resp.Body.Close()
					return
				}
				got := decodeBody[api.AdmitResponse](t, resp)
				mu.Lock()
				if got.Admitted {
					admitted += got.Plan.MachineTime
					admits++
				} else {
					rejects++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if admits == 0 {
		t.Fatal("no admissions")
	}
	if rejects == 0 {
		t.Fatal("no rejections: the pool never saturated, over-commit untested")
	}
	if admitted > budget*(1+1e-9) {
		t.Fatalf("over-commit: admitted %v machine-seconds from a budget of %v", admitted, budget)
	}
	remaining := srv.Tenants().Get("etl").Remaining()
	if remaining < 0 {
		t.Fatalf("ledger went negative: %v", remaining)
	}
	if diff := admitted + remaining - budget; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("ledger leak: admitted %v + remaining %v != budget %v", admitted, remaining, budget)
	}
}

// postTenantBody posts a raw body to url and asserts the answer an unknown
// "tenant" key gets: the JSON error envelope (no stream), 400, code
// bad_request, the strict decoders' text.
func postTenantBody(t *testing.T, url, body string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q, want the JSON error envelope", url, ct)
	}
	env := decodeBody[api.ErrorResponse](t, resp)
	const want = `invalid JSON: json: unknown field "tenant"`
	if resp.StatusCode != http.StatusBadRequest || env.Code != api.CodeBadRequest || env.Error != want {
		t.Errorf("%s: %d %s %q, want 400 bad_request %q", url, resp.StatusCode, env.Code, env.Error, want)
	}
}

// TestPlanTenantRouting: /v1/plan no longer routes through a tenant pool (it
// used to debit the plan's machine time, and answer 429 once the pool could
// not pay). A body naming a tenant, known or not, is a 400 unknown field and
// the pool does not move: /v1/admit is the way to spend it.
func TestPlanTenantRouting(t *testing.T) {
	budget := 1.5 * bestPlanMachineTime(t)
	srv, ts := newTestServer(t, Config{Tenants: testRegistry(t, "etl", budget)})
	body := `{"job":` + wireJob + `,"econ":` + wireEcon + `,"tenant":"etl"}`
	for i := 0; i < 2; i++ { // the second used to be the 429
		postTenantBody(t, ts.URL+"/v1/plan", body)
	}
	if rem := srv.Tenants().Get("etl").Remaining(); rem != budget {
		t.Errorf("pool at %g after tenant-named plans, want %g untouched", rem, budget)
	}

	t.Run("unknown tenant", func(t *testing.T) { // used to be a 404
		postTenantBody(t, ts.URL+"/v1/plan", `{"job":`+wireJob+`,"tenant":"nope"}`)
	})
}

// TestBatchTenantRouting: /v1/plan/batch no longer routes through a tenant
// pool (it used to cap the allocation by the pool, debit it, and answer 429
// once drained). A batch naming a tenant is a 400 unknown field and the pool
// does not move; the budget is the request's own, required and positive. A
// tenant's PoCD floor still binds pinned jobs where budgets are spent, on
// /v1/admit/batch.
func TestBatchTenantRouting(t *testing.T) {
	budget := 4 * bestPlanMachineTime(t)
	srv, ts := newTestServer(t, Config{Tenants: testRegistry(t, "etl", budget)})
	postTenantBody(t, ts.URL+"/v1/plan/batch",
		`{"jobs":[{"job":`+wireJob+`},{"job":`+wireJob+`}],"econ":`+wireEcon+`,"tenant":"etl"}`)
	if rem := srv.Tenants().Get("etl").Remaining(); rem != budget {
		t.Errorf("pool at %g after a tenant-named batch, want %g untouched", rem, budget)
	}

	t.Run("tenant rmin floors pinned jobs", func(t *testing.T) {
		reg, err := tenant.NewRegistry(map[string]tenant.Limits{
			"sla": {Budget: 1e6, RMin: 0.9},
		})
		if err != nil {
			t.Fatal(err)
		}
		_, slaTS := newTestServer(t, Config{Tenants: reg})
		got := decodeBody[api.AdmitBatchResponse](t, postJSON(t, slaTS.URL+"/v1/admit/batch",
			api.AdmitBatchRequest{Tenant: "sla", Jobs: []api.AdmitBatchJob{{Job: testJob(), Strategy: "clone"}}}))
		if len(got.Results) != 1 || !got.Results[0].Admitted {
			t.Fatalf("pinned job not admitted: %+v", got)
		}
		if pocd := got.Results[0].Plan.PoCD; pocd <= 0.9 {
			t.Errorf("pinned job PoCD %v at or below the tenant's RMin 0.9", pocd)
		}
	})

	req := api.BatchRequest{Jobs: []api.BatchJob{{Job: testJob()}, {Job: testJob()}}, Econ: testEcon()}
	t.Run("negative budget is 400", func(t *testing.T) {
		neg := req
		neg.Budget = -5
		resp := postJSON(t, ts.URL+"/v1/plan/batch", neg)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})

	// A request budget below the r=0 floor is a 422, the pool's level
	// notwithstanding.
	t.Run("tiny explicit budget is 422 not 429", func(t *testing.T) {
		small := req
		small.Budget = 1
		resp := postJSON(t, ts.URL+"/v1/plan/batch", small)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("status = %d, want 422", resp.StatusCode)
		}
	})
}

// TestTenantPlanNearDegenerate: D - tauEst within a percent of tmin puts
// Restart's concavity threshold in the hundreds, where its machine time used
// to evaluate to NaN. The plan answered 500, the NaN cost was debited all the
// same, and the tenant's pool then refused every admit until restart.
func TestTenantPlanNearDegenerate(t *testing.T) {
	_, ts := newTestServer(t, Config{Tenants: testRegistry(t, "demo", 1e9)})
	job := chronos.JobParams{Tasks: 1000, Deadline: 20, TMin: 10, Beta: 1.5, TauEst: 9.9, TauKill: 15}
	resp := postJSON(t, ts.URL+"/v1/admit", api.AdmitRequest{Tenant: "demo", Strategy: "restart", Job: job, Econ: testEcon()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	got := decodeBody[api.AdmitResponse](t, resp)
	if !got.Admitted || got.Plan == nil {
		t.Fatalf("near-degenerate admit rejected: %q", got.Reason)
	}
	if c := got.Plan.Cost; math.IsNaN(c) || math.IsInf(c, 0) || c <= 0 {
		t.Fatalf("plan cost = %v, want finite and positive", c)
	}
	gauge := metricValue(getMetricsText(t, ts.URL), `chronosd_tenant_budget_remaining{tenant="demo"}`)
	if left, err := strconv.ParseFloat(gauge, 64); err != nil || math.IsNaN(left) || left != 1e9-got.Plan.MachineTime {
		t.Errorf("budget remaining = %q (%v), want %v", gauge, err, 1e9-got.Plan.MachineTime)
	}
	admit := decodeBody[api.AdmitResponse](t, postJSON(t, ts.URL+"/v1/admit",
		api.AdmitRequest{Tenant: "demo", Job: testJob(), Econ: testEcon()}))
	if !admit.Admitted {
		t.Errorf("admit after the near-degenerate plan rejected: %q", admit.Reason)
	}
}

func TestSetTenantsFlushesCache(t *testing.T) {
	srv, ts := newTestServer(t, Config{Tenants: testRegistry(t, "etl", 1e6)})
	postJSON(t, ts.URL+"/v1/plan", api.PlanRequest{Job: testJob(), Econ: testEcon()}).Body.Close()
	if _, _, entries := srv.CacheStats(); entries != 1 {
		t.Fatalf("entries = %d, want 1", entries)
	}
	srv.SetTenants(testRegistry(t, "etl", 1e6))
	if _, _, entries := srv.CacheStats(); entries != 0 {
		t.Errorf("entries after SetTenants = %d, want 0 (cache flushed)", entries)
	}
}

func TestTenantMetrics(t *testing.T) {
	mt := bestPlanMachineTime(t)
	_, ts := newTestServer(t, Config{Tenants: testRegistry(t, "etl", 1.5*mt)})

	req := api.AdmitRequest{Tenant: "etl", Job: testJob(), Econ: testEcon()}
	for i := 0; i < 6; i++ { // one optimal admit, maybe squeezed ones, then rejects
		postJSON(t, ts.URL+"/v1/admit", req).Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`chronosd_tenant_admits_total{tenant="etl"}`,
		`chronosd_tenant_rejects_total{tenant="etl",reason="budget_exhausted"}`,
		`chronosd_tenant_plans_total{tenant="etl",strategy=`,
		`chronosd_tenant_budget_remaining{tenant="etl"}`,
		// Admit-served plans count in the global series too.
		`chronosd_plans_total{strategy=`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q\n--- got:\n%s", want, body)
		}
	}
}

// TestOnlyAdmitSpendsTenantBudget: /v1/admit and /v1/admit/batch are the one
// way to spend a tenant's budget. A "tenant" key on /v1/plan, /v1/plan/batch
// or /v1/replay — which used to debit the pool, or stream until it drained —
// is an unknown field: a 400 before anything is planned or streamed, with the
// pool level and the admit counter where they were.
func TestOnlyAdmitSpendsTenantBudget(t *testing.T) {
	reg, err := tenant.NewRegistry(map[string]tenant.Limits{
		"team": {Budget: 5000, Theta: 1e-4, UnitPrice: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Tenants: reg})
	t.Cleanup(s.Close)
	if dec := decodeBody[api.AdmitResponse](t, postJSON(t, ts.URL+"/v1/admit",
		api.AdmitRequest{Tenant: "team", Job: testJob()})); !dec.Admitted {
		t.Fatalf("admit refused: %q", dec.Reason)
	}

	ledger := func() [3]string {
		text := getMetricsText(t, ts.URL)
		return [3]string{
			strconv.FormatFloat(s.Tenants().Get("team").Remaining(), 'g', -1, 64),
			metricValue(text, `chronosd_tenant_admits_total{tenant="team"}`),
			metricValue(text, "chronosd_replays_total"),
		}
	}
	before := ledger()
	if before[1] != "1" {
		t.Fatalf("tenant admits = %q before the probes, want 1", before[1])
	}
	for _, tc := range []struct{ path, body string }{
		{"/v1/plan", `{"job":` + wireJob + `,"econ":` + wireEcon + `,"tenant":"team"}`},
		{"/v1/plan/batch", `{"jobs":[{"job":` + wireJob + `}],"tenant":"team"}`},
		{"/v1/replay", `{"config":{"strategy":"clone","seed":7},"jobs":[` + wireSimJob + `],"tenant":"team"}`},
	} {
		postTenantBody(t, ts.URL+tc.path, tc.body)
	}
	if after := ledger(); after != before {
		t.Errorf("pool, admits, replays moved from %q to %q", before, after)
	}
}
