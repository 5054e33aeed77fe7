package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"chronos"
	"chronos/api"
	"chronos/internal/tenant"
)

func TestAdmitBatchEndpoint(t *testing.T) {
	mt := bestPlanMachineTime(t)
	r0, err := chronos.ExpectedMachineTime(chronos.Clone, testJob(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Two optimal plans plus change that cannot cover a third even at r=0:
	// a 6-job batch must admit the front of the queue and reject the tail.
	budget := 2*mt + r0/2
	_, ts := newTestServer(t, Config{Tenants: testRegistry(t, "etl", budget)})

	jobs := make([]api.AdmitBatchJob, 6)
	for i := range jobs {
		jobs[i] = api.AdmitBatchJob{Job: testJob()}
	}
	got := decodeBody[api.AdmitBatchResponse](t, postJSON(t, ts.URL+"/v1/admit/batch",
		api.AdmitBatchRequest{Tenant: "etl", Jobs: jobs, Econ: testEcon()}))

	if got.Tenant != "etl" {
		t.Fatalf("tenant = %q, want etl", got.Tenant)
	}
	if len(got.Results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(got.Results), len(jobs))
	}
	var admitted float64
	admits := 0
	sawReject := false
	for i, res := range got.Results {
		if res.Admitted {
			if sawReject {
				t.Errorf("job %d admitted after an earlier budget rejection; "+
					"in-order allocation should drain monotonically", i)
			}
			if res.Plan == nil {
				t.Fatalf("job %d admitted without a plan", i)
			}
			admitted += res.Plan.MachineTime
			admits++
			continue
		}
		sawReject = true
		if res.Reason != api.ReasonBudgetExhausted {
			t.Errorf("job %d rejected with reason %q, want %q", i, res.Reason, api.ReasonBudgetExhausted)
		}
		if res.Plan != nil {
			t.Errorf("job %d rejection carried a plan", i)
		}
	}
	if admits < 2 {
		t.Fatalf("only %d of %d jobs admitted; budget covers at least 2", admits, len(jobs))
	}
	if !sawReject {
		t.Fatal("no job rejected; the batch never saturated the budget")
	}
	if got.Admitted != admits {
		t.Errorf("Admitted = %d, want %d", got.Admitted, admits)
	}
	if admitted > budget*(1+1e-9) {
		t.Fatalf("over-commit: batch admitted %v machine-seconds from a budget of %v", admitted, budget)
	}
	if got.BudgetRemaining < 0 {
		t.Errorf("budgetRemaining went negative: %v", got.BudgetRemaining)
	}
	if diff := admitted + got.BudgetRemaining - budget; diff > 1e-5 || diff < -1e-5 {
		t.Errorf("ledger leak: admitted %v + remaining %v != budget %v",
			admitted, got.BudgetRemaining, budget)
	}
}

func TestAdmitBatchErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Tenants: testRegistry(t, "etl", 1e6)})
	wantStatus := func(t *testing.T, req api.AdmitBatchRequest, want int) {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/admit/batch", req)
		defer resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("status = %d, want %d", resp.StatusCode, want)
		}
	}

	t.Run("missing tenant", func(t *testing.T) {
		wantStatus(t, api.AdmitBatchRequest{Jobs: []api.AdmitBatchJob{{Job: testJob()}}, Econ: testEcon()},
			http.StatusBadRequest)
	})
	t.Run("unknown tenant", func(t *testing.T) {
		wantStatus(t, api.AdmitBatchRequest{Tenant: "nope", Jobs: []api.AdmitBatchJob{{Job: testJob()}}},
			http.StatusNotFound)
	})
	t.Run("empty batch", func(t *testing.T) {
		wantStatus(t, api.AdmitBatchRequest{Tenant: "etl"}, http.StatusBadRequest)
	})
	t.Run("unknown strategy", func(t *testing.T) {
		wantStatus(t, api.AdmitBatchRequest{
			Tenant: "etl",
			Jobs:   []api.AdmitBatchJob{{Job: testJob()}, {Job: testJob(), Strategy: "dolly"}},
		}, http.StatusBadRequest)
	})
	t.Run("over the batch limit", func(t *testing.T) {
		srv, small := newTestServer(t, Config{
			Tenants: testRegistry(t, "etl", 1e6), MaxBatchJobs: 2,
		})
		_ = srv
		jobs := []api.AdmitBatchJob{{Job: testJob()}, {Job: testJob()}, {Job: testJob()}}
		resp := postJSON(t, small.URL+"/v1/admit/batch",
			api.AdmitBatchRequest{Tenant: "etl", Jobs: jobs, Econ: testEcon()})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})
}

// TestAdmitBatchInfeasibleMixed: per-job infeasibility is a per-item
// rejection, not a whole-request failure, and does not block admissible
// neighbors.
func TestAdmitBatchInfeasibleMixed(t *testing.T) {
	_, ts := newTestServer(t, Config{Tenants: testRegistry(t, "etl", 1e9)})
	// RMin 0.9 is attainable for testJob (see the pinned-jobs floor test)
	// but far out of reach for a deadline barely above the minimum runtime.
	econ := testEcon()
	econ.RMin = 0.9
	impossible := chronos.JobParams{
		Tasks: 10, Deadline: 10.5, TMin: 10, Beta: 1.5, TauEst: 3, TauKill: 6,
	}
	got := decodeBody[api.AdmitBatchResponse](t, postJSON(t, ts.URL+"/v1/admit/batch",
		api.AdmitBatchRequest{
			Tenant: "etl",
			Jobs:   []api.AdmitBatchJob{{Job: impossible}, {Job: testJob()}},
			Econ:   econ,
		}))
	if got.Results[0].Admitted || got.Results[0].Reason != api.ReasonInfeasible {
		t.Errorf("impossible job: admitted=%v reason=%q, want rejection with %q",
			got.Results[0].Admitted, got.Results[0].Reason, api.ReasonInfeasible)
	}
	if !got.Results[1].Admitted {
		t.Errorf("feasible neighbor rejected (%q)", got.Results[1].Reason)
	}
	if got.Admitted != 1 {
		t.Errorf("Admitted = %d, want 1", got.Admitted)
	}
}

// TestAdmitBatchSingleDebit is the batched-admission acceptance property: a
// whole batch settles against the tenant's pool in ONE ledger debit — one
// WAL record per batch, not per admitted job — on the pool owner, whichever
// replica received it. Run under -race this also exercises concurrent
// batches relayed to, and contending on, the same pool.
func TestAdmitBatchSingleDebit(t *testing.T) {
	budget := 200 * bestPlanMachineTime(t) // generous: every job in every batch admits
	dirs := make([]string, 3)
	servers, listeners := newRingFleet(t, 3, func(i int) Config {
		dirs[i] = t.TempDir()
		store, err := tenant.OpenStore(dirs[i])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		return Config{Tenants: testRegistry(t, "etl", budget), Store: store}
	})
	for _, s := range servers {
		t.Cleanup(s.Close)
	}
	owner := tenantOwner(t, servers, "etl")

	const batches = 6
	const jobsPerBatch = 4
	var (
		mu       sync.Mutex
		admitted int
	)
	var wg sync.WaitGroup
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			jobs := make([]api.AdmitBatchJob, jobsPerBatch)
			for i := range jobs {
				// Distinct shapes per slot so the batch actually solves
				// several cells rather than hitting one cached plan.
				job := testJob()
				job.Tasks = 8 + (b*jobsPerBatch+i)%7
				jobs[i] = api.AdmitBatchJob{Job: job}
			}
			resp := postJSON(t, listeners[b%3].URL+"/v1/admit/batch",
				api.AdmitBatchRequest{Tenant: "etl", Jobs: jobs, Econ: testEcon()})
			if resp.StatusCode != http.StatusOK {
				resp.Body.Close()
				t.Errorf("batch %d: status = %d, want 200", b, resp.StatusCode)
				return
			}
			got := decodeBody[api.AdmitBatchResponse](t, resp)
			for i, res := range got.Results {
				if !res.Admitted {
					t.Errorf("batch %d job %d rejected (%q) under a generous budget", b, i, res.Reason)
				}
			}
			mu.Lock()
			admitted += got.Admitted
			mu.Unlock()
		}(b)
	}
	wg.Wait()

	if admitted != batches*jobsPerBatch {
		t.Fatalf("admitted %d of %d jobs; the debit count below is only "+
			"meaningful when every batch settles", admitted, batches*jobsPerBatch)
	}
	for i, dir := range dirs {
		raw, err := os.ReadFile(filepath.Join(dir, "escrow-wal.ndjson"))
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if i == owner {
			want = batches
		}
		if got := strings.Count(string(raw), `"op":"debit"`); got != want {
			t.Errorf("replica %d (owner %d) logged %d debits for %d batches of %d jobs, want %d",
				i, owner, got, batches, jobsPerBatch, want)
		}
	}
}

// TestAdmitBatchResultOrder pins the wire contract: results are positional
// — result i is job i's unconstrained optimal plan.
func TestAdmitBatchResultOrder(t *testing.T) {
	_, ts := newTestServer(t, Config{Tenants: testRegistry(t, "etl", 1e6)})
	jobs := make([]api.AdmitBatchJob, 4)
	want := make([]chronos.Plan, len(jobs))
	for i := range jobs {
		job := testJob()
		job.Tasks = 8 + i
		jobs[i] = api.AdmitBatchJob{Job: job}
		plan, err := chronos.OptimizeBest(job, testEcon())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = plan
	}
	got := decodeBody[api.AdmitBatchResponse](t, postJSON(t, ts.URL+"/v1/admit/batch",
		api.AdmitBatchRequest{Tenant: "etl", Jobs: jobs, Econ: testEcon()}))
	if len(got.Results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(got.Results), len(jobs))
	}
	for i, res := range got.Results {
		if !res.Admitted {
			t.Fatalf("job %d rejected under a huge budget: %s", i, res.Reason)
		}
		if *res.Plan != want[i] {
			t.Errorf("job %d: plan %+v, want %+v — results out of order?", i, *res.Plan, want[i])
		}
	}
}

// TestAdmitBatchFaultNamesJob: a request fault in one job of a batch must
// say which job. The warm-up fan-out's error used to be reported bare, so a
// 1,024-job batch with one beta <= 1 was undebuggable from its 400.
func TestAdmitBatchFaultNamesJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Tenants: testRegistry(t, "etl", 1e9)})
	bad := testJob()
	bad.Beta = 0.5
	resp := postJSON(t, ts.URL+"/v1/admit/batch", api.AdmitBatchRequest{
		Tenant: "etl",
		Jobs:   []api.AdmitBatchJob{{Job: testJob()}, {Job: testJob()}, {Job: bad}, {Job: testJob()}},
		Econ:   testEcon(),
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	got := decodeBody[api.ErrorResponse](t, resp)
	if !strings.HasPrefix(got.Error, "job 2: ") {
		t.Errorf("error = %q, want it to start with the faulting job's index, \"job 2: \"", got.Error)
	}
}

// TestAdmitEqualsBatchOfOne is the differential test the shared settle loop
// makes cheap: on two identically configured servers, /v1/admit for job J
// and /v1/admit/batch of [J] must reach the same decision, reason, plan
// bytes and budgetRemaining and move the same tenant and plan counters —
// for each of the four outcomes, with and without Escrow set (as bench/ sets
// it; it is ignored), on a cold cell and again on the warm one.
func TestAdmitEqualsBatchOfOne(t *testing.T) {
	best, err := chronos.OptimizeBest(testJob(), testEcon())
	if err != nil {
		t.Fatal(err)
	}
	r0, err := chronos.ExpectedMachineTime(best.Strategy, testJob(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if best.R == 0 {
		t.Fatal("optimal plan already r=0; the squeezed case would not squeeze")
	}
	strict := testEcon()
	strict.RMin = 0.999999999
	impossible := chronos.JobParams{Tasks: 10, Deadline: 10.5, TMin: 10, Beta: 1.5, TauEst: 3, TauKill: 6}
	cases := []struct {
		name     string
		budget   float64
		job      chronos.JobParams
		econ     chronos.Econ
		admitted bool
		reason   string
	}{
		{"admitted in full", 1e9, testJob(), testEcon(), true, ""},
		{"squeezed", (r0 + best.MachineTime) / 2, testJob(), testEcon(), true, ""},
		{"budget exhausted", r0 / 2, testJob(), testEcon(), false, api.ReasonBudgetExhausted},
		{"infeasible deadline", 1e9, impossible, strict, false, api.ReasonInfeasible},
	}
	type decision struct {
		Admitted bool            `json:"admitted"`
		Plan     json.RawMessage `json:"plan"`
		Reason   string          `json:"reason"`
	}
	counters := func(url string) string {
		var kept []string
		for _, line := range strings.Split(getMetricsText(t, url), "\n") {
			for _, family := range []string{"chronosd_tenant_admits_total", "chronosd_tenant_rejects_total",
				"chronosd_tenant_plans_total", "chronosd_plans_total"} {
				if strings.HasPrefix(line, family+"{") {
					kept = append(kept, line)
				}
			}
		}
		return strings.Join(kept, "\n")
	}
	for _, escrow := range []bool{false, true} {
		for _, tc := range cases {
			name := tc.name
			if escrow {
				name += " under escrow"
			}
			t.Run(name, func(t *testing.T) {
				single, singleTS := newTestServer(t, Config{Tenants: testRegistry(t, "etl", tc.budget), Escrow: escrow})
				batch, batchTS := newTestServer(t, Config{Tenants: testRegistry(t, "etl", tc.budget), Escrow: escrow})
				t.Cleanup(single.Close)
				t.Cleanup(batch.Close)
				for round := 0; round < 2; round++ {
					one := decodeBody[struct {
						decision
						BudgetRemaining float64 `json:"budgetRemaining"`
					}](t, postJSON(t, singleTS.URL+"/v1/admit",
						api.AdmitRequest{Tenant: "etl", Job: tc.job, Econ: tc.econ}))
					many := decodeBody[struct {
						Results         []decision `json:"results"`
						Admitted        int        `json:"admitted"`
						BudgetRemaining float64    `json:"budgetRemaining"`
					}](t, postJSON(t, batchTS.URL+"/v1/admit/batch",
						api.AdmitBatchRequest{Tenant: "etl", Jobs: []api.AdmitBatchJob{{Job: tc.job}}, Econ: tc.econ}))
					if len(many.Results) != 1 {
						t.Fatalf("round %d: batch answered %d results, want 1", round, len(many.Results))
					}
					got := many.Results[0]
					// Only the first round is guaranteed its outcome: a second
					// squeezed admit may find the ledger drained.
					if round == 0 && (one.Admitted != tc.admitted || one.Reason != tc.reason) {
						t.Fatalf("/v1/admit: admitted=%v reason=%q, want %v %q", one.Admitted, one.Reason, tc.admitted, tc.reason)
					}
					if got.Admitted != one.Admitted || got.Reason != one.Reason {
						t.Errorf("round %d: batch admitted=%v reason=%q, single admitted=%v reason=%q",
							round, got.Admitted, got.Reason, one.Admitted, one.Reason)
					}
					if !bytes.Equal(got.Plan, one.Plan) {
						t.Errorf("round %d: plan bytes differ:\nbatch  %s\nsingle %s", round, got.Plan, one.Plan)
					}
					if many.BudgetRemaining != one.BudgetRemaining {
						t.Errorf("round %d: budgetRemaining batch %v, single %v", round, many.BudgetRemaining, one.BudgetRemaining)
					}
					if (many.Admitted == 1) != one.Admitted || many.Admitted > 1 {
						t.Errorf("round %d: batch admitted count %d, single admitted=%v", round, many.Admitted, one.Admitted)
					}
					if b, s := counters(batchTS.URL), counters(singleTS.URL); b != s {
						t.Errorf("round %d: counters differ:\nbatch:\n%s\nsingle:\n%s", round, b, s)
					} else if b == "" {
						t.Errorf("round %d: no tenant or plan counter moved", round)
					}
				}
			})
		}
	}
}
