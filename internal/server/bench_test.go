package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"chronos/api"
	"chronos/internal/tenant"
)

// The two serving benchmarks with no twin in bench/ (whose traced run
// reports the plan and admit handlers as server.*_ns and server.*_allocs).
// Both cross the full httptest stack and run once per `make bench` as a
// smoke; neither gates anything.

// BenchmarkAdmitHandlerEscrow is an admit with fleet-exact accounting on
// but no WAL: it debits the escrow ledger's authoritative pool (owner path —
// a solo replica owns every tenant) instead of the bare token bucket. Against
// bench/'s server.admit_ns and server.admit_escrow_wal_ns it separates the
// price of exactness from the price of durability.
func BenchmarkAdmitHandlerEscrow(b *testing.B) {
	reg, err := tenant.NewRegistry(map[string]tenant.Limits{
		"bench": {Budget: 1e18},
	})
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{Tenants: reg, Escrow: true})
	defer s.Close()
	h := s.Handler()
	raw, err := json.Marshal(api.AdmitRequest{Tenant: "bench", Job: testJob(), Econ: testEcon()})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/admit", bytes.NewReader(raw))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status = %d: %s", rec.Code, rec.Body)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "admits/s")
}

// BenchmarkBatchHandler measures a 64-job shared-budget allocation with
// best-of-three selection fanned out across the worker pool.
func BenchmarkBatchHandler(b *testing.B) {
	s := New(Config{})
	h := s.Handler()
	jobs := make([]api.BatchJob, 64)
	for i := range jobs {
		job := testJob()
		job.Tasks = 5 + i%20
		jobs[i] = api.BatchJob{Job: job}
	}
	raw, err := json.Marshal(api.BatchRequest{Jobs: jobs, Budget: 500000, Econ: testEcon()})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/plan/batch", bytes.NewReader(raw))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status = %d: %s", rec.Code, rec.Body)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(jobs))/b.Elapsed().Seconds(), "plans/s")
}
