package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"chronos"
	"chronos/api"
)

// testJob returns parameters with a real straggler problem, so the
// optimizer has something to do.
func testJob() chronos.JobParams {
	return chronos.JobParams{
		Tasks: 10, Deadline: 100, TMin: 10, Beta: 1.5,
		TauEst: 30, TauKill: 60,
	}
}

func testEcon() chronos.Econ {
	return chronos.Econ{Theta: 1e-4, UnitPrice: 1}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	body := decodeBody[map[string]string](t, resp)
	if body["status"] != "ok" {
		t.Errorf("status field = %q, want ok", body["status"])
	}
}

func TestPlanEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	req := api.PlanRequest{Job: testJob(), Econ: testEcon()}

	resp := postJSON(t, ts.URL+"/v1/plan", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	first := decodeBody[api.PlanResponse](t, resp)
	if first.Cached {
		t.Error("first request should not be cached")
	}
	isChronos := false
	for _, s := range chronos.ChronosStrategies() {
		if first.Plan.Strategy == s {
			isChronos = true
		}
	}
	if !isChronos {
		t.Errorf("plan strategy = %v, want a Chronos strategy", first.Plan.Strategy)
	}
	if first.Plan.PoCD <= 0 || first.Plan.PoCD > 1 {
		t.Errorf("PoCD = %v, want in (0, 1]", first.Plan.PoCD)
	}

	// The identical request must short-circuit through the plan cache.
	second := decodeBody[api.PlanResponse](t, postJSON(t, ts.URL+"/v1/plan", req))
	if !second.Cached {
		t.Error("repeated request should be served from cache")
	}
	if second.Plan != first.Plan {
		t.Errorf("cached plan %+v differs from computed plan %+v", second.Plan, first.Plan)
	}
	hits, misses, entries := srv.CacheStats()
	if hits != 1 || misses != 1 || entries != 1 {
		t.Errorf("cache stats hits=%d misses=%d entries=%d, want 1/1/1", hits, misses, entries)
	}
}

func TestPlanPinnedStrategy(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := api.PlanRequest{Job: testJob(), Econ: testEcon(), Strategy: "clone"}
	got := decodeBody[api.PlanResponse](t, postJSON(t, ts.URL+"/v1/plan", req))
	if got.Plan.Strategy != chronos.Clone {
		t.Errorf("strategy = %v, want Clone", got.Plan.Strategy)
	}
}

func TestPlanErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 512})

	t.Run("malformed JSON", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/plan", "application/json",
			strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})

	t.Run("invalid params", func(t *testing.T) {
		bad := testJob()
		bad.Beta = 0.5 // infinite-mean Pareto: rejected by validation
		resp := postJSON(t, ts.URL+"/v1/plan", api.PlanRequest{Job: bad, Econ: testEcon()})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})

	t.Run("unknown strategy", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/plan",
			api.PlanRequest{Job: testJob(), Econ: testEcon(), Strategy: "dolly"})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})

	t.Run("infeasible", func(t *testing.T) {
		// A valid but unsatisfiable problem: deadline barely above tmin
		// and an RMin no attempt count can reach.
		impossible := chronos.JobParams{
			Tasks: 10, Deadline: 10.5, TMin: 10, Beta: 1.5,
			TauEst: 3, TauKill: 6,
		}
		econ := testEcon()
		econ.RMin = 0.999999999
		resp := postJSON(t, ts.URL+"/v1/plan",
			api.PlanRequest{Job: impossible, Econ: econ})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("status = %d, want 422", resp.StatusCode)
		}
	})

	t.Run("oversize body", func(t *testing.T) {
		big := fmt.Sprintf(`{"job": {"tasks": 10}, "pad": %q}`,
			strings.Repeat("x", 2048))
		resp, err := http.Post(ts.URL+"/v1/plan", "application/json",
			strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("status = %d, want 413", resp.StatusCode)
		}
	})

	t.Run("method not allowed", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/plan")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("status = %d, want 405", resp.StatusCode)
		}
	})
}

// TestPlanSearchCap: with D - tauEst three millionths above tmin Restart's
// Gamma is about 13 million, and one such request used to run for 15 s and
// grow the process by 700 MB. The solver's search cap fails that strategy
// closed: 422 when it is pinned, the best of the other two otherwise.
func TestPlanSearchCap(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	job := chronos.JobParams{Tasks: 1000, Deadline: 20, TMin: 10, Beta: 1.5, TauEst: 9.999997, TauKill: 15}

	start := time.Now()
	resp := postJSON(t, ts.URL+"/v1/plan", api.PlanRequest{Job: job, Econ: testEcon(), Strategy: "restart"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("pinned restart: status = %d, want 422", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/plan", api.PlanRequest{Job: job, Econ: testEcon()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("best-of-three: status = %d, want 200", resp.StatusCode)
	}
	got := decodeBody[api.PlanResponse](t, resp)
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("two plans took %v, want < 100ms", took)
	}
	want, err := chronos.OptimizeBest(job, testEcon())
	if err != nil || got.Plan != want || want.Strategy == chronos.SpeculativeRestart {
		t.Errorf("best-of-three plan = %+v, want %+v (%v) from another strategy", got.Plan, want, err)
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	jobs := []api.BatchJob{
		{Job: testJob()},                       // best-of-three
		{Job: testJob(), Strategy: "clone"},    // pinned
		{Job: testJob(), Strategy: "s-resume"}, // pinned short form
		{Job: testJob(), RMin: 0.5},            // with a PoCD floor
	}
	req := api.BatchRequest{Jobs: jobs, Budget: 5000, Econ: testEcon()}
	resp := postJSON(t, ts.URL+"/v1/plan/batch", req)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, want 200 (%s)", resp.StatusCode, body)
	}
	got := decodeBody[api.BatchResponse](t, resp)
	if len(got.Plans) != len(jobs) {
		t.Fatalf("got %d plans, want %d", len(got.Plans), len(jobs))
	}
	if got.TotalMachineTime > req.Budget {
		t.Errorf("allocation %v exceeds budget %v", got.TotalMachineTime, req.Budget)
	}
	if got.Plans[1].Strategy != chronos.Clone {
		t.Errorf("pinned job strategy = %v, want Clone", got.Plans[1].Strategy)
	}
	if got.Plans[2].Strategy != chronos.SpeculativeResume {
		t.Errorf("pinned job strategy = %v, want Speculative-Resume", got.Plans[2].Strategy)
	}
	if got.Plans[3].PoCD <= 0.5 {
		t.Errorf("job with rmin 0.5 got PoCD %v", got.Plans[3].PoCD)
	}
}

func TestBatchErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatchJobs: 2})

	t.Run("no jobs", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/plan/batch", api.BatchRequest{Budget: 100})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})

	t.Run("too many jobs", func(t *testing.T) {
		jobs := []api.BatchJob{{Job: testJob()}, {Job: testJob()}, {Job: testJob()}}
		resp := postJSON(t, ts.URL+"/v1/plan/batch",
			api.BatchRequest{Jobs: jobs, Budget: 5000, Econ: testEcon()})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})

	t.Run("missing budget", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/plan/batch",
			api.BatchRequest{Jobs: []api.BatchJob{{Job: testJob()}}, Econ: testEcon()})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})

	t.Run("budget too small", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/plan/batch", api.BatchRequest{
			Jobs:   []api.BatchJob{{Job: testJob(), Strategy: "clone"}},
			Budget: 1, Econ: testEcon(),
		})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("status = %d, want 422", resp.StatusCode)
		}
	})
}

func TestTradeoffEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	url := ts.URL + "/v1/tradeoff?strategy=clone&tasks=10&deadline=100&tmin=10&beta=1.5&tauEst=30&tauKill=60&theta=1e-4&price=1&maxR=6"
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, want 200 (%s)", resp.StatusCode, body)
	}
	got := decodeBody[api.TradeoffResponse](t, resp)
	if len(got.Points) != 7 {
		t.Fatalf("got %d points, want 7", len(got.Points))
	}
	for i := 1; i < len(got.Points); i++ {
		if got.Points[i].PoCD < got.Points[i-1].PoCD {
			t.Errorf("PoCD not monotone at r=%d: %v < %v",
				i, got.Points[i].PoCD, got.Points[i-1].PoCD)
		}
		if got.Points[i].MachineTime <= got.Points[i-1].MachineTime {
			t.Errorf("machine time not increasing at r=%d", i)
		}
	}

	t.Run("missing strategy", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/tradeoff?tasks=10")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})

	t.Run("bad number", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/tradeoff?strategy=clone&tasks=ten")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})

	t.Run("maxR over cap", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/tradeoff?strategy=clone&tasks=10&deadline=100&tmin=10&beta=1.5&tauEst=30&tauKill=60&maxR=100000")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := api.PlanRequest{Job: testJob(), Econ: testEcon()}
	postJSON(t, ts.URL+"/v1/plan", req).Body.Close()
	postJSON(t, ts.URL+"/v1/plan", req).Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	for _, want := range []string{
		`chronosd_requests_total{endpoint="/v1/plan",code="200"} 2`,
		"chronosd_plan_cache_hits_total 1",
		"chronosd_plan_cache_misses_total 1",
		"chronosd_plan_cache_entries 1",
		`chronosd_request_duration_seconds_bucket{endpoint="/v1/plan",le="+Inf"} 2`,
		"chronosd_plans_total{strategy=",
		"chronosd_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q\n--- got:\n%s", want, body)
		}
	}
}

func TestNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v2/nope")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}

// TestPlanEconAboveCapIs400: a theta or unit price above the planner's cap
// is the request's fault. A 1e308 price used to overflow the plan's cost and
// answer 500 "response encoding failed".
func TestPlanEconAboveCapIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const job = `{"tasks":10,"deadline":100,"tmin":10,"beta":1.5,"tauEst":30,"tauKill":60}`
	for _, econ := range []string{`{"theta":1e-4,"unitPrice":1e308}`, `{"theta":1e308,"unitPrice":1}`} {
		resp, err := http.Post(ts.URL+"/v1/plan", "application/json",
			strings.NewReader(`{"job":`+job+`,"econ":`+econ+`}`))
		if err != nil {
			t.Fatal(err)
		}
		env := decodeBody[api.ErrorResponse](t, resp)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(env.Error, "(0, 1e+06]") {
			t.Errorf("econ %s: %d %q, want 400 naming the cap", econ, resp.StatusCode, env.Error)
		}
	}
}
