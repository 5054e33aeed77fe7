package client

// Cross-commit pin of what the SDK puts on the wire: json.Marshal of every
// request type with fixed values (and with none, for the omitempty rules), and
// the query string Tradeoff builds, compared with testdata/request_golden.json.
// The file was generated at d9d3b30; rows are only ever appended, except
// that PlanRequest, BatchRequest and ReplayRequest jobs lost their "tenant"
// key with the field, and the two SimulateRequest rows went with
// POST /v1/simulate.

import (
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"chronos"
)

const requestGoldenPath = "testdata/request_golden.json"

// -update adds the rows the golden file does not have yet. It never rewrites
// a row: to re-pin one on purpose, delete it from the file first.
var updateRequestGolden = flag.Bool("update", false, "add missing rows to testdata/request_golden.json")

type requestRow struct {
	Name string `json:"name"`
	Sent string `json:"sent"`
}

// tradeoffQuery is the raw query string Tradeoff sends for these arguments.
func tradeoffQuery(t *testing.T, strategy string, job chronos.JobParams, econ chronos.Econ, maxR int) string {
	t.Helper()
	var got string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.URL.Path + "?" + r.URL.RawQuery
		_, _ = w.Write([]byte(`{}`))
	}))
	defer ts.Close()
	if _, err := New(ts.URL).Tradeoff(context.Background(), strategy, job, econ, maxR); err != nil {
		t.Fatal(err)
	}
	return got
}

func requestRows(t *testing.T) []requestRow {
	t.Helper()
	job := chronos.JobParams{Tasks: 10, Deadline: 100, TMin: 10, Beta: 1.5, TauEst: 30, TauKill: 60, PhiEst: 0.25}
	econ := chronos.Econ{Theta: 1e-4, UnitPrice: 2, RMin: 0.5}
	simCfg := chronos.SimConfig{Strategy: chronos.SpeculativeResume, Seed: 7, Nodes: 16}
	simJobs := []chronos.SimJob{{Tasks: 10, Deadline: 100, TMin: 10, Beta: 1.5, Arrival: 5}}

	var rows []requestRow
	add := func(name string, v any) {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rows = append(rows, requestRow{Name: name, Sent: string(raw)})
	}
	add("PlanRequest", PlanRequest{Job: job, Econ: econ, Strategy: "clone"})
	add("PlanRequest zero", PlanRequest{})
	add("BatchRequest", BatchRequest{
		Jobs:   []BatchJob{{Job: job}, {Strategy: "resume", Job: job, RMin: 0.9}},
		Budget: 5000, Econ: econ,
	})
	add("BatchRequest zero", BatchRequest{})
	add("AdmitRequest", AdmitRequest{Tenant: "team", Job: job, Strategy: "restart", Econ: econ})
	add("AdmitRequest zero", AdmitRequest{})
	add("AdmitBatchRequest", AdmitBatchRequest{
		Tenant: "team", Jobs: []AdmitBatchJob{{Job: job}, {Job: job, Strategy: "clone"}}, Econ: econ,
	})
	add("AdmitBatchRequest zero", AdmitBatchRequest{})
	// A zero Strategy does not marshal, so the simulation requests' barest
	// form still names one.
	bare := chronos.SimConfig{Strategy: chronos.Clone}
	add("ReplayRequest jobs", ReplayRequest{Config: simCfg, Jobs: simJobs, WindowSeconds: 300})
	add("ReplayRequest trace", ReplayRequest{Config: simCfg,
		Trace: &ReplayTrace{Jobs: 5, HorizonSeconds: 3600, DeadlineRatio: 2.5, Seed: 11}})
	add("ReplayRequest bare trace", ReplayRequest{Config: bare, Trace: &ReplayTrace{}})
	add("ReplayRequest bare", ReplayRequest{Config: bare})

	rows = append(rows,
		requestRow{Name: "Tradeoff", Sent: tradeoffQuery(t, "resume", job, econ, 6)},
		requestRow{Name: "Tradeoff zero", Sent: tradeoffQuery(t, "clone", chronos.JobParams{}, chronos.Econ{}, 0)})

	// Appended when Benchmark became a typed field (at d9d3b30 it was a
	// json.RawMessage the caller wrote by hand).
	add("ReplayRequest benchmark", ReplayRequest{Config: simCfg,
		Benchmark: &ReplayBenchmark{Name: "Sort", Jobs: 5, Tasks: 6, SpacingSeconds: 300}})
	add("ReplayRequest bare benchmark", ReplayRequest{Config: bare, Benchmark: &ReplayBenchmark{}})
	return rows
}

func TestRequestGolden(t *testing.T) {
	var rows []requestRow
	if data, err := os.ReadFile(requestGoldenPath); err == nil {
		if err := json.Unmarshal(data, &rows); err != nil {
			t.Fatalf("%s: %v", requestGoldenPath, err)
		}
	} else if !*updateRequestGolden {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := make(map[string]requestRow, len(rows))
	for _, r := range rows {
		want[r.Name] = r
	}

	added := 0
	for _, got := range requestRows(t) {
		w, pinned := want[got.Name]
		switch {
		case pinned && got != w:
			t.Errorf("%s: the SDK's request moved\n got %s\nwant %s", got.Name, got.Sent, w.Sent)
		case !pinned && *updateRequestGolden:
			rows = append(rows, got)
			added++
		case !pinned:
			t.Errorf("%s: no golden row (run with -update to add it)", got.Name)
		}
	}
	if added > 0 {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(requestGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("added %d rows to %s", added, requestGoldenPath)
	}
}
