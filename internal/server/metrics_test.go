package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"chronos"
	"chronos/api"
	"chronos/internal/obs"
	"chronos/internal/plankey"
	"chronos/internal/tenant"
)

// TestMetricsGolden renders /metrics over a fixed counter state and compares
// it byte for byte with testdata/metrics.golden, which was generated by the
// pre-counterVec writers over the same state: every labelled family (int and
// string labels, two-label tenant families, quoted label values, float
// gauges), both histogram families, and the sort order of each.
func TestMetricsGolden(t *testing.T) {
	reg, err := tenant.NewRegistry(map[string]tenant.Limits{
		"alpha": {Budget: 1000}, "beta": {Budget: 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Tenants: reg, Escrow: true,
		Self: "http://127.0.0.1:10", Peers: []string{"http://127.0.0.1:1", "http://127.0.0.1:2"},
	})
	defer s.Close()
	m := s.metrics
	for _, code := range []int{200, 200, 200, 400, 1000, 99} {
		seconds := 0.002
		if code == 200 {
			seconds = 0.001
		}
		m.endpoint("/v1/plan").observe(code, seconds)
	}
	m.endpoint("/v1/admit").observe(200, 0.25)
	m.endpoint("/v1/admit").observe(429, 3)
	for _, strategy := range []string{"Clone", "Clone", "Speculative-Resume"} {
		m.plans.inc(strategy)
	}
	for _, strategy := range []string{"Speculative-Restart", "Clone", "Clone"} {
		m.tenantAdmit("beta", strategy)
	}
	m.tenantReject("alpha", "infeasible_deadline")
	m.tenantReject("alpha", "budget_exhausted")
	m.tenantReject("beta", "budget_exhausted")
	m.tenantReject("gamma<\"", "budget_exhausted")
	for _, peer := range []string{"http://127.0.0.1:2", "http://127.0.0.1:2", "http://127.0.0.1:1"} {
		m.ringForwards.inc(peer)
	}
	m.ringErrors.inc("http://127.0.0.1:2")
	m.ringDials.inc("http://127.0.0.1:1")
	m.ringDials.inc("http://127.0.0.1:2")
	m.stageSeconds[obs.StageSolve].Observe(0.0004)
	m.ringLocalFallbacks.Inc()
	m.replayEmit(true)

	var buf bytes.Buffer
	m.writePrometheus(&buf, s.cache, s.tenants.Load(), s.ringSt.Load(), s.ledger)
	got := regexp.MustCompile(`(?m)^chronosd_uptime_seconds .*$`).
		ReplaceAll(buf.Bytes(), []byte("chronosd_uptime_seconds X"))
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i, w := range wantLines {
		if i >= len(gotLines) || gotLines[i] != w {
			t.Fatalf("/metrics differs from the golden at line %d, want %q", i+1, w)
		}
	}
	t.Fatalf("/metrics has %d lines, golden has %d", len(gotLines), len(wantLines))
}

// TestMetricCatalog holds the series table to being a catalog: every family
// says what it means and names what exercises it — a Test function that
// exists in this package, or bench:<metric> for a metric BENCHMARK.json
// declares. A family nothing checks has to gain a test or go.
func TestMetricCatalog(t *testing.T) {
	tests := map[string]bool{}
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range regexp.MustCompile(`(?m)^func (Test\w+)\(`).FindAllSubmatch(src, -1) {
			tests[string(m[1])] = true
		}
	}
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	benchMetrics := map[string]bool{}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		benchMetrics[m.Name] = true
	}

	seen := map[string]bool{}
	for _, f := range newServerMetrics().catalog() {
		if !strings.HasPrefix(f.name, "chronosd_") || seen[f.name] {
			t.Errorf("%s: family names are unique and start with chronosd_", f.name)
		}
		seen[f.name] = true
		if f.help == "" {
			t.Errorf("%s: no help text", f.name)
		}
		if metric, ok := strings.CutPrefix(f.checkedBy, "bench:"); ok {
			if !benchMetrics[metric] {
				t.Errorf("%s: checkedBy names bench metric %q, which BENCHMARK.json does not declare", f.name, metric)
			}
		} else if !tests[f.checkedBy] {
			t.Errorf("%s: checkedBy %q is neither a Test function in this package nor bench:<metric>", f.name, f.checkedBy)
		}
	}
}

// TestEncodeFailureIsCounted500: a plan the codec cannot encode (a NaN, as a
// corrupted cache dump could carry) is answered as a counted, static 500 —
// never a truncated 200.
func TestEncodeFailureIsCounted500(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.cache.put([]byte(plankey.Key("", testJob(), testEcon())),
		chronos.Plan{Strategy: chronos.Clone, R: 1, Utility: math.NaN()}, nil)
	resp := postJSON(t, ts.URL+"/v1/plan", api.PlanRequest{Job: testJob(), Econ: testEcon()})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if got := decodeBody[api.ErrorResponse](t, resp); got.Code != api.CodeInternal {
		t.Errorf("error code = %q, want %q", got.Code, api.CodeInternal)
	}
	if got := metricValue(getMetricsText(t, ts.URL), "chronosd_response_encode_failures_total"); got != "1" {
		t.Errorf("chronosd_response_encode_failures_total = %q, want 1", got)
	}
}
