package server

import (
	"net/http"
	"sync/atomic"
	"testing"

	"chronos/api"
)

// TestBatchesSolveEachCellOnce: both batch endpoints walk their jobs in
// order through the plan cache, so a cold batch of 16 jobs over 4 shapes
// runs exactly 4 solves, and every job gets the answer it would get alone.
func TestBatchesSolveEachCellOnce(t *testing.T) {
	const shapes, n = 4, 16
	job := func(i int) api.BatchJob {
		j := api.BatchJob{Job: testJob()}
		j.Job.Tasks = 8 + i%shapes
		return j
	}
	counted := func(t *testing.T, cfg Config) (*atomic.Int64, string) {
		srv, ts := newTestServer(t, cfg)
		t.Cleanup(srv.Close)
		solves := new(atomic.Int64)
		srv.solveHook = func(string) { solves.Add(1) }
		return solves, ts.URL
	}
	const budget = 1e9

	t.Run("/v1/admit/batch", func(t *testing.T) {
		solves, url := counted(t, Config{Tenants: testRegistry(t, "etl", budget)})
		jobs := make([]api.AdmitBatchJob, n)
		for i := range jobs {
			jobs[i] = api.AdmitBatchJob{Job: job(i).Job}
		}
		resp := postJSON(t, url+"/v1/admit/batch", api.AdmitBatchRequest{Tenant: "etl", Jobs: jobs, Econ: testEcon()})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200", resp.StatusCode)
		}
		got := decodeBody[api.AdmitBatchResponse](t, resp)
		if s := solves.Load(); s != shapes {
			t.Errorf("%d solves for %d jobs over %d shapes, want %d", s, n, shapes, shapes)
		}
		// Each job alone, on a second server whose pool is as deep.
		_, single := counted(t, Config{Tenants: testRegistry(t, "etl", budget)})
		for i, res := range got.Results {
			one := decodeBody[api.AdmitResponse](t, postJSON(t, single+"/v1/admit",
				api.AdmitRequest{Tenant: "etl", Job: jobs[i].Job, Econ: testEcon()}))
			if !res.Admitted || !one.Admitted || *res.Plan != *one.Plan {
				t.Errorf("job %d: batch admitted=%v plan %+v, alone admitted=%v plan %+v",
					i, res.Admitted, res.Plan, one.Admitted, one.Plan)
			}
		}
	})

	t.Run("/v1/plan/batch", func(t *testing.T) {
		solves, url := counted(t, Config{})
		jobs := make([]api.BatchJob, n)
		for i := range jobs {
			jobs[i] = job(i)
		}
		resp := postJSON(t, url+"/v1/plan/batch", api.BatchRequest{Jobs: jobs, Budget: budget, Econ: testEcon()})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200", resp.StatusCode)
		}
		got := decodeBody[api.BatchResponse](t, resp)
		if s := solves.Load(); s != shapes {
			t.Errorf("%d solves for %d jobs over %d shapes, want %d", s, n, shapes, shapes)
		}
		for i, p := range got.Plans {
			// Each job alone: its strategy is /v1/plan's, its allocation that
			// of a batch of one under the same (ample) budget.
			alone := decodeBody[api.PlanResponse](t, postJSON(t, url+"/v1/plan",
				api.PlanRequest{Job: jobs[i].Job, Econ: testEcon()}))
			one := decodeBody[api.BatchResponse](t, postJSON(t, url+"/v1/plan/batch",
				api.BatchRequest{Jobs: jobs[i : i+1], Budget: budget, Econ: testEcon()}))
			if p.Strategy != alone.Plan.Strategy || len(one.Plans) != 1 || p != one.Plans[0] {
				t.Errorf("job %d: batch %+v, alone %+v (/v1/plan strategy %v)", i, p, one.Plans, alone.Plan.Strategy)
			}
		}
	})
}
