package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"

	"chronos/api"
	"chronos/internal/tenant"
)

// escrowFleet boots an n-replica ring with an identical single-tenant config
// per replica (the deployment contract), as cmd/chronosd replicas sharing
// one tenants.json would. Escrow is set as bench/ sets it; it is ignored.
func escrowFleet(t *testing.T, n int, tenantName string, budget float64) ([]*Server, []string) {
	t.Helper()
	servers, listeners := newRingFleet(t, n, func(i int) Config {
		return Config{
			Tenants: testRegistry(t, tenantName, budget),
			Escrow:  true,
		}
	})
	urls := make([]string, n)
	for i, ts := range listeners {
		urls[i] = ts.URL
	}
	for _, s := range servers {
		t.Cleanup(s.Close)
	}
	return servers, urls
}

// tenantOwner returns the index of the replica that owns tenantName's pool.
func tenantOwner(t testing.TB, servers []*Server, tenantName string) int {
	t.Helper()
	for i, s := range servers {
		rs := s.ringSt.Load()
		if owner, _ := rs.ring.TenantOwner(tenantName); owner == rs.self {
			return i
		}
	}
	t.Fatalf("no replica owns tenant %q", tenantName)
	return -1
}

// TestFleetEscrowNeverOverCommits is the fleet's budget property: concurrent
// admits spread across every replica of a 3-replica fleet can never debit
// more machine time, fleet-wide, than the tenant's single configured
// budget, and no replica but the pool owner debits its copy of the pool.
func TestFleetEscrowNeverOverCommits(t *testing.T) {
	mt := bestPlanMachineTime(t)
	budget := 6 * mt // room for ~6 optimal plans across the whole fleet
	servers, urls := escrowFleet(t, 3, "etl", budget)

	const workers = 6
	const perWorker = 8
	var (
		mu       sync.Mutex
		admitted float64
		admits   int
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Distinct job shapes spread plan keys (and so serving
				// replicas) across the ring; the request entry point rotates
				// across replicas too.
				job := testJob()
				job.Tasks = 8 + (w*perWorker+i)%7
				req := api.AdmitRequest{Tenant: "etl", Job: job, Econ: testEcon()}
				raw, err := json.Marshal(req)
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(urls[(w+i)%len(urls)]+"/v1/admit",
					"application/json", strings.NewReader(string(raw)))
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("admit: status %d body %s err %v", resp.StatusCode, body, err)
					return
				}
				var dec api.AdmitResponse
				if err := json.Unmarshal(body, &dec); err != nil {
					t.Error(err)
					return
				}
				if dec.Admitted {
					mu.Lock()
					admitted += dec.Plan.MachineTime
					admits++
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()

	if admits == 0 {
		t.Fatal("no admits succeeded")
	}
	if admitted > budget*(1+1e-9) {
		t.Fatalf("fleet admitted %g machine-seconds against a %g budget: over-committed by %g",
			admitted, budget, admitted-budget)
	}
	t.Logf("fleet admitted %d plans, %g of %g machine-seconds", admits, admitted, budget)

	owner := tenantOwner(t, servers, "etl")
	for i, s := range servers {
		left := s.Tenants().Get("etl").Remaining()
		if i == owner && math.Abs(budget-admitted-left) > 1e-6*budget {
			t.Errorf("owner's pool holds %g, want budget %g - admitted %g", left, budget, admitted)
		}
		if i != owner && left != budget {
			t.Errorf("replica %d debited a pool it does not own: %g of %g left", i, left, budget)
		}
	}
}

// TestAdmitAnswerIndependentOfReceiver: an admit's answer is the pool
// owner's, whichever replica receives it. With 90 % of the pool left, a job
// costing 15 % of the budget is admitted in full through every replica, with
// the same bytes. (When a non-owner squeezed plans into its own escrow lease,
// at most a tenth of the budget, it squeezed or refused this job.)
func TestAdmitAnswerIndependentOfReceiver(t *testing.T) {
	budget := bestPlanMachineTime(t) / 0.15
	var want []byte
	for via := 0; via < 3; via++ {
		servers, urls := escrowFleet(t, 3, "etl", budget)
		for _, s := range servers {
			s.Tenants().Get("etl").SetLevel(0.9 * budget)
		}
		resp := postJSON(t, urls[via]+"/v1/admit", api.AdmitRequest{Tenant: "etl", Job: testJob(), Econ: testEcon()})
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("admit via replica %d: status %d, %v: %s", via, resp.StatusCode, err, body)
		}
		var dec api.AdmitResponse
		if err := json.Unmarshal(body, &dec); err != nil {
			t.Fatal(err)
		}
		if !dec.Admitted {
			t.Errorf("admit via replica %d refused: %q", via, dec.Reason)
		}
		body = regexp.MustCompile(`"traceId":"[^"]*"`).ReplaceAll(body, []byte(`"traceId":""`))
		if want == nil {
			want = body
		} else if !bytes.Equal(body, want) {
			t.Errorf("admit via replica %d answered\n%s\nvia replica 0\n%s", via, body, want)
		}
	}
}

// TestEscrowRestartRestoresLevels: a pool owner that dies without a
// graceful shutdown (WAL only, no final snapshot) and one that shuts down
// cleanly both come back with exactly the level they had — no lost and no
// duplicated debits.
func TestEscrowRestartRestoresLevels(t *testing.T) {
	dir := t.TempDir()
	mt := bestPlanMachineTime(t)
	budget := 4 * mt

	open := func() *tenant.Store {
		st, err := tenant.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	admitOnce := func(url string, tasks int) float64 {
		job := testJob()
		job.Tasks = tasks
		resp := postJSON(t, url+"/v1/admit", api.AdmitRequest{Tenant: "etl", Job: job, Econ: testEcon()})
		dec := decodeBody[api.AdmitResponse](t, resp)
		if !dec.Admitted {
			t.Fatalf("admit(tasks=%d) rejected: %s", tasks, dec.Reason)
		}
		return dec.BudgetRemaining
	}

	// Generation 1: two debits, then a hard crash (the store is closed to
	// flush file handles, but the server never compacts or releases).
	store1 := open()
	srv1, ts1 := newTestServer(t, Config{
		Tenants: testRegistry(t, "etl", budget), Escrow: true, Store: store1,
	})
	admitOnce(ts1.URL, 10)
	wantRemaining := admitOnce(ts1.URL, 11)
	_ = srv1 // deliberately not Closed: simulates a crash
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	// Generation 2 boots from the anchor snapshot + WAL replay.
	store2 := open()
	srv2, ts2 := newTestServer(t, Config{
		Tenants: testRegistry(t, "etl", budget), Escrow: true, Store: store2,
	})
	got := srv2.Tenants().Get("etl").Remaining()
	if diff := got - wantRemaining; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("after crash restart: remaining = %g, want %g (lost or duplicated debits)", got, wantRemaining)
	}

	// Generation 2 spends more, then shuts down gracefully (final compact).
	wantRemaining = admitOnce(ts2.URL, 12)
	srv2.Close()
	if err := store2.Close(); err != nil {
		t.Fatal(err)
	}

	// Generation 3 boots from the compacted snapshot alone.
	store3 := open()
	srv3, _ := newTestServer(t, Config{
		Tenants: testRegistry(t, "etl", budget), Escrow: true, Store: store3,
	})
	defer srv3.Close()
	got = srv3.Tenants().Get("etl").Remaining()
	if diff := got - wantRemaining; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("after graceful restart: remaining = %g, want %g", got, wantRemaining)
	}
}

// TestErrorEnvelopeUnified: every /v1 error carries the unified envelope —
// error text, stable code, and the request's trace ID.
func TestErrorEnvelopeUnified(t *testing.T) {
	_, ts := newTestServer(t, Config{Tenants: testRegistry(t, "etl", 1)})

	cases := []struct {
		name       string
		do         func() *http.Response
		wantStatus int
		wantCode   string
	}{
		{
			name: "bad json",
			do: func() *http.Response {
				resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader("{"))
				if err != nil {
					t.Fatal(err)
				}
				return resp
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   api.CodeBadRequest,
		},
		{
			name: "unknown tenant",
			do: func() *http.Response {
				return postJSON(t, ts.URL+"/v1/admit", api.AdmitRequest{Tenant: "nope", Job: testJob()})
			},
			wantStatus: http.StatusNotFound,
			wantCode:   api.CodeNotFound,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := tc.do()
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			var env api.ErrorResponse
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Fatalf("not an error envelope: %s", raw)
			}
			if env.Error == "" {
				t.Error("envelope error text is empty")
			}
			if env.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", env.Code, tc.wantCode)
			}
			if env.TraceID == "" {
				t.Error("envelope trace ID is empty")
			}
			if header := resp.Header.Get("X-Chronosd-Trace-Id"); env.TraceID != header {
				t.Errorf("envelope trace ID %q != response header %q", env.TraceID, header)
			}
		})
	}
}

// TestEscrowSoloFallsBackToOwnerPath: with sharding off, the one replica
// owns every tenant's pool and debits it directly.
func TestEscrowSoloFallsBackToOwnerPath(t *testing.T) {
	mt := bestPlanMachineTime(t)
	srv, ts := newTestServer(t, Config{
		Tenants: testRegistry(t, "etl", 2*mt+1), Escrow: true,
	})
	defer srv.Close()
	admits := 0
	for i := 0; i < 5; i++ {
		resp := postJSON(t, ts.URL+"/v1/admit", api.AdmitRequest{Tenant: "etl", Job: testJob(), Econ: testEcon()})
		dec := decodeBody[api.AdmitResponse](t, resp)
		if dec.Admitted {
			admits++
		}
	}
	if admits < 2 {
		t.Fatalf("admits = %d, want >= 2 (escrow solo mode rejects affordable jobs)", admits)
	}
}

// TestFleetEscrowHugeBudget: a 1e15 machine-second budget is admitted
// through every replica. (It once put more than an int64 of micro
// machine-seconds in every escrow lease target, whose conversion wrapped
// negative and refused every admit.)
func TestFleetEscrowHugeBudget(t *testing.T) {
	_, urls := escrowFleet(t, 3, "deep", 1e15)
	for i := 0; i < 12; i++ {
		job := testJob()
		job.Tasks = 8 + i%7 // spread plan keys, and so serving replicas
		resp := postJSON(t, urls[i%3]+"/v1/admit", api.AdmitRequest{Tenant: "deep", Job: job, Econ: testEcon()})
		if dec := decodeBody[api.AdmitResponse](t, resp); !dec.Admitted {
			t.Fatalf("admit %d via replica %d refused: %+v", i, i%3, dec)
		}
	}
}

// TestWALAppendFailureCounted: an admit the WAL could not record is still
// answered — the ledger has already mutated — but it must be visible as
// chronosd_escrow_wal_append_failures_total, the operator's only warning
// that a restart would resurrect spent budget.
func TestWALAppendFailureCounted(t *testing.T) {
	store, err := tenant.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Tenants: testRegistry(t, "etl", 1e9), Escrow: true, Store: store})
	t.Cleanup(s.Close)
	const failures = "chronosd_escrow_wal_append_failures_total"
	if got := metricValue(getMetricsText(t, ts.URL), failures); got != "0" {
		t.Fatalf("%s = %q before any failure, want 0", failures, got)
	}
	if err := store.Close(); err != nil { // every append from here on fails
		t.Fatal(err)
	}
	got := decodeBody[api.AdmitResponse](t, postJSON(t, ts.URL+"/v1/admit",
		api.AdmitRequest{Tenant: "etl", Job: testJob(), Econ: testEcon()}))
	if !got.Admitted {
		t.Fatalf("admit rejected (%q); a WAL failure must not fail the request", got.Reason)
	}
	if got := metricValue(getMetricsText(t, ts.URL), failures); got != "1" {
		t.Errorf("%s = %q after one unlogged debit, want 1", failures, got)
	}
}

// TestFleetEscrowOwnerDeathNeverOverCommits: a dead pool owner must not hand
// its tenant a second budget. Pools are owned on the one ring, so a survivor
// never becomes the owner: with the owner unreachable it refuses every job
// with budget_exhausted. (While a health monitor moved ownership to the
// survivors, one became the owner with a pool no debit had ever reached and
// admitted the whole budget again.)
func TestFleetEscrowOwnerDeathNeverOverCommits(t *testing.T) {
	budget := 4.4 * bestPlanMachineTime(t)
	servers, listeners := newRingFleet(t, 3, func(int) Config {
		return Config{
			Tenants: testRegistry(t, "etl", budget), Escrow: true,
			BreakerThreshold: 1,
		}
	})
	for _, s := range servers {
		t.Cleanup(s.Close)
	}
	owner := tenantOwner(t, servers, "etl")
	job := testJob()
	req := api.AdmitRequest{Tenant: "etl", Job: job, Econ: testEcon()}
	admit := func(via int) api.AdmitResponse {
		t.Helper()
		resp := postJSON(t, listeners[via].URL+"/v1/admit", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("admit via replica %d: status %d", via, resp.StatusCode)
		}
		return decodeBody[api.AdmitResponse](t, resp)
	}

	// Spend the pool: the job through every replica until all refuse it.
	admitted := 0.0
	for i, refusals := 0, 0; refusals < 3; i++ {
		if i == 100 {
			t.Fatal("the pool never ran dry")
		}
		if dec := admit(i % 3); dec.Admitted {
			admitted, refusals = admitted+dec.Plan.MachineTime, 0
		} else {
			refusals++
		}
	}
	if admitted < budget/2 {
		t.Fatalf("the fleet admitted %g machine-seconds of a %g budget before the outage", admitted, budget)
	}

	listeners[owner].Close()
	survivors := []int{(owner + 1) % 3, (owner + 2) % 3}
	for _, i := range survivors {
		if dec := admit(i); dec.Admitted {
			admitted += dec.Plan.MachineTime
			t.Errorf("survivor %d admitted %g machine-seconds with the pool owner dead", i, dec.Plan.MachineTime)
		} else if dec.Reason != api.ReasonBudgetExhausted {
			t.Errorf("survivor %d refused with reason %q, want %q", i, dec.Reason, api.ReasonBudgetExhausted)
		}
		resp := postJSON(t, listeners[i].URL+"/v1/admit/batch", api.AdmitBatchRequest{
			Tenant: "etl", Econ: testEcon(), Jobs: []api.AdmitBatchJob{{Job: job}, {Job: job}},
		})
		for k, res := range decodeBody[api.AdmitBatchResponse](t, resp).Results {
			if res.Admitted {
				admitted += res.Plan.MachineTime
				t.Errorf("survivor %d admitted batch job %d with the pool owner dead", i, k)
			} else if res.Reason != api.ReasonBudgetExhausted {
				t.Errorf("survivor %d refused batch job %d with reason %q, want %q", i, k, res.Reason, api.ReasonBudgetExhausted)
			}
		}
	}
	if admitted > budget*(1+1e-9) {
		t.Fatalf("fleet admitted %g machine-seconds against a %g budget through the owner's death", admitted, budget)
	}
}
