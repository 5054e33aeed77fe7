package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"chronos/api"
	"chronos/internal/obs"
	"chronos/internal/ring"
)

// TestTraceIDStampedOnEveryResponse pins the edge contract: every response —
// success, client error, even a liveness probe — carries X-Chronosd-Trace-Id,
// honoring a usable inbound ID and minting otherwise.
func TestTraceIDStampedOnEveryResponse(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp := postJSON(t, ts.URL+"/v1/plan", api.PlanRequest{Job: testJob(), Econ: testEcon()})
	minted := resp.Header.Get(obs.TraceHeader)
	if !obs.ValidID(minted) {
		t.Errorf("plan response trace ID %q is not a valid minted ID", minted)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, "caller-chosen.id-42")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if got := resp2.Header.Get(obs.TraceHeader); got != "caller-chosen.id-42" {
		t.Errorf("healthz trace ID = %q, want the honored inbound ID", got)
	}

	req3, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/plan", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	req3.Header.Set(obs.TraceHeader, "bad id with spaces")
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp3.StatusCode)
	}
	got := resp3.Header.Get(obs.TraceHeader)
	if !obs.ValidID(got) || got == "bad id with spaces" {
		t.Errorf("unusable inbound ID produced %q, want a minted replacement", got)
	}
}

// TestPlanTraceRecordsStages drives one cold and one cached plan and checks
// the retained snapshots: the cold request spent time in quantize+cache+solve,
// the cached one in quantize+cache only, and both carry the cached flag.
func TestPlanTraceRecordsStages(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := api.PlanRequest{Job: testJob(), Econ: testEcon()}

	ids := make([]string, 2)
	for i := range ids {
		resp := postJSON(t, ts.URL+"/v1/plan", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status = %d", i, resp.StatusCode)
		}
		ids[i] = resp.Header.Get(obs.TraceHeader)
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	cold := s.Traces().Find(ids[0])
	if cold == nil {
		t.Fatalf("no snapshot for cold trace %q", ids[0])
	}
	if cold.Route != "/v1/plan" {
		t.Errorf("cold route = %q", cold.Route)
	}
	for _, st := range []obs.Stage{obs.StageQuantize, obs.StageCache, obs.StageSolve} {
		if cold.StageCounts[st] == 0 {
			t.Errorf("cold plan did not record stage %s", st)
		}
	}
	if cold.Cached == nil || *cold.Cached {
		t.Errorf("cold snapshot cached = %v, want false", cold.Cached)
	}

	hit := s.Traces().Find(ids[1])
	if hit == nil {
		t.Fatalf("no snapshot for cached trace %q", ids[1])
	}
	if hit.StageCounts[obs.StageSolve] != 0 {
		t.Error("cached plan recorded a solve stage")
	}
	if hit.StageCounts[obs.StageCache] == 0 {
		t.Error("cached plan did not record the cache lookup")
	}
	if hit.Cached == nil || !*hit.Cached {
		t.Errorf("cached snapshot cached = %v, want true", hit.Cached)
	}
	if hit.Seconds <= 0 || hit.StageSeconds(obs.StageCache) <= 0 {
		t.Errorf("cached snapshot has non-positive timings: total %g, cache %g",
			hit.Seconds, hit.StageSeconds(obs.StageCache))
	}
}

// TestCacheSpanSkipsInterveningWork holds the shared key-build/cache-probe
// boundary to the requests it is true for. A forward attempt that falls back
// to local work runs between the key build and the probe, and the cache span
// must not cover it. (The admit path probes the cache right after its key
// build, before it reads the pool's level.)
func TestCacheSpanSkipsInterveningWork(t *testing.T) {
	t.Run("forward fallback", func(t *testing.T) {
		slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			time.Sleep(20 * time.Millisecond)
			w.WriteHeader(http.StatusServiceUnavailable)
		}))
		t.Cleanup(slow.Close)
		s, ts := newTestServer(t, Config{BreakerThreshold: 100})
		if err := s.SetRing(ring.Membership{Self: ts.URL, Peers: []string{slow.URL}}); err != nil {
			t.Fatal(err)
		}
		resp := postJSON(t, ts.URL+"/v1/plan", reqOwnedBy(t, s, slow.URL))
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fallback plan: status = %d", resp.StatusCode)
		}
		snap := s.Traces().Find(resp.Header.Get(obs.TraceHeader))
		if snap == nil {
			t.Fatal("no snapshot for the fallback plan")
		}
		fwd, cache := snap.StageNanos[obs.StageForward], snap.StageNanos[obs.StageCache]
		if snap.StageCounts[obs.StageForward] != 1 || snap.StageCounts[obs.StageCache] != 1 {
			t.Fatalf("stage counts %v, want one forward and one cache span", snap.StageCounts)
		}
		if cache >= fwd {
			t.Errorf("cache span %v covers the %v forward attempt before it", time.Duration(cache), time.Duration(fwd))
		}
	})
}

// TestFleetTraceSpansForwardHop is the acceptance scenario: one /v1/plan
// request sent with an explicit trace ID through a non-owning replica must
// leave the SAME trace ID in the response header and in BOTH replicas' span
// records — the forwarder's with a forward span, the owner's marked as the
// forwarded hop with the solve work.
func TestFleetTraceSpansForwardHop(t *testing.T) {
	servers, listeners := newRingFleet(t, 3, func(int) Config { return Config{} })
	req := api.PlanRequest{Job: testJob(), Econ: testEcon()}
	owner := fleetOwner(t, servers, listeners, req)
	via := (owner + 1) % 3

	const traceID = "fleet-trace-test-1"
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, listeners[via].URL+"/v1/plan", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(obs.TraceHeader, traceID)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != traceID {
		t.Errorf("response trace ID = %q, want %q to survive the forward hop", got, traceID)
	}
	if got := resp.Header.Get(ServedByHeader); got != listeners[owner].URL {
		t.Fatalf("served by %q, want owner %q (test needs a real forward)", got, listeners[owner].URL)
	}

	fwd := servers[via].Traces().Find(traceID)
	if fwd == nil {
		t.Fatal("forwarding replica retained no snapshot for the trace")
	}
	if fwd.StageCounts[obs.StageForward] == 0 {
		t.Error("forwarding replica's snapshot has no forward span")
	}
	if fwd.ForwardHop {
		t.Error("forwarding replica marked itself as the forwarded hop")
	}
	if fwd.ServedBy != listeners[owner].URL {
		t.Errorf("forwarder snapshot servedBy = %q, want owner", fwd.ServedBy)
	}
	if fwd.StageSeconds(obs.StageForward) <= 0 {
		t.Error("forward span has no accumulated time")
	}

	own := servers[owner].Traces().Find(traceID)
	if own == nil {
		t.Fatal("owning replica retained no snapshot for the trace")
	}
	if !own.ForwardHop {
		t.Error("owner's snapshot is not marked as a forwarded hop")
	}
	if own.StageCounts[obs.StageSolve] == 0 {
		t.Error("owner's snapshot has no solve span (it computed the plan)")
	}
	if own.StageCounts[obs.StageForward] != 0 {
		t.Error("owner recorded a forward span; the loop guard should prevent a second hop")
	}

	// The third replica never saw the request.
	third := (owner + 2) % 3
	if third == via {
		third = (owner + 1) % 3
	}
	for i, s := range servers {
		if i == via || i == owner {
			continue
		}
		if s.Traces().Find(traceID) != nil {
			t.Errorf("replica %d retained a snapshot for a request it never served", i)
		}
	}
}

// TestConcurrentRequestsKeepTracesIsolated hammers one server with parallel
// plan requests under -race: every response gets a distinct minted trace ID
// and every retained snapshot's stage counts are internally consistent (a
// single-plan request records each fired stage exactly once — interleaved
// recording across requests would inflate them). The trace and its
// snapshot are pooled per request, so 1,000 later requests — health checks,
// 400s, a tenant's admits, more plans — then run on the same pooled objects,
// and each earlier request must still read back, from TraceRing.Find and
// from /debug/traces, as its own: ID, route, status, cached flag and stages.
func TestConcurrentRequestsKeepTracesIsolated(t *testing.T) {
	s, ts := newTestServer(t, Config{TraceRingSize: 4096, Tenants: testRegistry(t, "later", 1e30)})
	const workers = 8
	const perWorker = 25

	var mu sync.Mutex
	cached := make(map[string]bool) // each early request's trace ID and its answer's cached flag
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				job := testJob()
				job.Deadline = 100 + float64((w*perWorker+i)%31)
				resp := postJSON(t, ts.URL+"/v1/plan", api.PlanRequest{Job: job, Econ: testEcon()})
				id := resp.Header.Get(obs.TraceHeader)
				var plan api.PlanResponse
				err := json.NewDecoder(resp.Body).Decode(&plan)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || err != nil {
					t.Errorf("status = %d, %v", resp.StatusCode, err)
					return
				}
				mu.Lock()
				if _, dup := cached[id]; dup {
					t.Errorf("trace ID %q minted twice", id)
				}
				cached[id] = plan.Cached
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	if got := s.Traces().Len(); got != workers*perWorker {
		t.Fatalf("ring retains %d snapshots, want %d", got, workers*perWorker)
	}
	for _, snap := range s.Traces().Slowest(0) {
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			if c := snap.StageCounts[st]; c > 1 {
				t.Errorf("trace %s stage %s fired %d times; spans bled across requests",
					snap.ID, st, c)
			}
		}
		if snap.StageCounts[obs.StageQuantize] != 1 {
			t.Errorf("trace %s missing its quantize span", snap.ID)
		}
	}

	get := func(url string) *http.Response {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	const later = 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < later; i += workers {
				var resp *http.Response
				switch job := testJob(); i % 4 {
				case 0:
					resp = get(ts.URL + "/healthz")
				case 1:
					resp = postJSON(t, ts.URL+"/v1/plan", map[string]any{"job": "not a job"})
				case 2:
					job.Deadline = 200 + float64(i)
					resp = postJSON(t, ts.URL+"/v1/admit", api.AdmitRequest{Tenant: "later", Job: job, Econ: testEcon()})
				default:
					job.Tasks = 5 + i%7
					resp = postJSON(t, ts.URL+"/v1/plan", api.PlanRequest{Job: job, Econ: testEcon()})
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()

	check := func(from string, snap *obs.Snapshot, id string) {
		t.Helper()
		if snap == nil || snap.ID != id || snap.Route != "/v1/plan" || snap.Status != http.StatusOK ||
			snap.Cached == nil || *snap.Cached != cached[id] || snap.Tenant != "" {
			t.Fatalf("%s: trace %s reads back as %+v, want its own 200 /v1/plan with cached %v", from, id, snap, cached[id])
		}
		solves := int64(1)
		if cached[id] {
			solves = 0
		}
		want := [obs.NumStages]int64{obs.StageQuantize: 1, obs.StageCache: 1, obs.StageSolve: solves}
		if snap.StageCounts != want {
			t.Fatalf("%s: trace %s stage counts %v, want %v", from, id, snap.StageCounts, want)
		}
	}
	for id := range cached {
		check("Find", s.Traces().Find(id), id)
	}
	// The later requests ran on recycled traces: none may carry a tag or a
	// span of the request its trace served before.
	for _, snap := range s.Traces().Slowest(0) {
		if _, early := cached[snap.ID]; early {
			continue
		}
		var leak bool
		switch {
		case snap.Route == "/v1/admit":
			leak = snap.Tenant != "later"
		case snap.Route == "/v1/plan" && snap.Status == http.StatusOK:
			leak = snap.Tenant != "" || snap.Cached == nil || snap.StageCounts[obs.StageQuantize] != 1
		default: // /healthz, and the 400s that fail before any stage
			leak = snap.Tenant != "" || snap.Cached != nil || snap.StageCounts != [obs.NumStages]int64{}
		}
		if leak {
			t.Errorf("later request %s %s %d carries another request's state: %+v", snap.ID, snap.Route, snap.Status, snap)
		}
	}
	resp := get(ts.URL + "/debug/traces?n=0")
	defer resp.Body.Close()
	var wire []struct {
		TraceID string `json:"traceId"`
		Route   string `json:"route"`
		Status  int    `json:"status"`
		Tenant  string `json:"tenant"`
		Cached  *bool  `json:"cached"`
		Stages  map[string]struct {
			Count int64 `json:"count"`
		} `json:"stages"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if len(wire) != workers*perWorker+later {
		t.Fatalf("/debug/traces returned %d traces, want %d", len(wire), workers*perWorker+later)
	}
	found := 0
	for _, e := range wire {
		if _, early := cached[e.TraceID]; !early {
			continue
		}
		found++
		snap := &obs.Snapshot{ID: e.TraceID, Route: e.Route, Status: e.Status, Tenant: e.Tenant, Cached: e.Cached}
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			snap.StageCounts[st] = e.Stages[st.String()].Count
		}
		check("/debug/traces", snap, e.TraceID)
	}
	if found != len(cached) {
		t.Errorf("/debug/traces holds %d of the %d early traces", found, len(cached))
	}
}

// TestDebugTracesEndpointOnServingMux exercises GET /debug/traces on the
// serving listener: slowest-first JSON with per-stage breakdowns, and the
// inspection itself must not mint traces into the ring.
func TestDebugTracesEndpointOnServingMux(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts.URL+"/v1/plan", api.PlanRequest{Job: testJob(), Econ: testEcon()})
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/debug/traces?n=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var out []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d traces, want 2 (n=2)", len(out))
	}
	if out[0]["seconds"].(float64) < out[1]["seconds"].(float64) {
		t.Error("traces are not sorted slowest first")
	}
	for _, entry := range out {
		if entry["route"] != "/v1/plan" {
			t.Errorf("route = %v", entry["route"])
		}
		stages, ok := entry["stages"].(map[string]any)
		if !ok || len(stages) == 0 {
			t.Errorf("trace %v has no stage breakdown", entry["traceId"])
		}
	}

	// Inspecting traces must not insert new ones: the ring still holds
	// exactly the three plan requests.
	if got := s.Traces().Len(); got != 3 {
		t.Errorf("ring retains %d snapshots after inspection, want 3", got)
	}
}

// TestDebugHandlerServesPprof pins the separate -debug-addr surface: pprof
// index and /debug/traces are reachable on DebugHandler, and the serving mux
// does NOT expose pprof.
func TestDebugHandlerServesPprof(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	dbg := httptest.NewServer(s.DebugHandler())
	defer dbg.Close()

	resp, err := http.Get(dbg.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index: status %d, body %.80s", resp.StatusCode, body)
	}

	resp2, err := http.Get(dbg.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("debug traces on debug mux: status = %d", resp2.StatusCode)
	}

	resp3, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode == http.StatusOK {
		t.Error("serving listener exposes /debug/pprof/; it must stay on -debug-addr")
	}
}

// TestRequestLogLine injects a buffer-backed slog logger and checks the
// structured request line: trace ID, route, status, cache flag, and the stage
// group all land in one JSON object — on chronosd's own handler, where the
// server renders the line itself, and on a foreign one, where slog does.
func TestRequestLogLine(t *testing.T) {
	for name, handler := range map[string]func(io.Writer) slog.Handler{
		"obs handler":  func(w io.Writer) slog.Handler { return obs.NewHandler(w, slog.LevelInfo) },
		"slog handler": func(w io.Writer) slog.Handler { return slog.NewJSONHandler(w, nil) },
	} {
		t.Run(name, func(t *testing.T) { testRequestLogLine(t, handler) })
	}
}

func testRequestLogLine(t *testing.T, handler func(io.Writer) slog.Handler) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(handler(&syncWriter{w: &buf, mu: &mu}))
	_, ts := newTestServer(t, Config{Logger: logger})

	resp := postJSON(t, ts.URL+"/v1/plan", api.PlanRequest{Job: testJob(), Econ: testEcon()})
	traceID := resp.Header.Get(obs.TraceHeader)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	if len(lines) != 1 {
		t.Fatalf("got %d log lines, want 1: %q", len(lines), buf.String())
	}
	var entry map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("request line is not JSON: %v", err)
	}
	if entry["msg"] != "request" {
		t.Errorf("msg = %v", entry["msg"])
	}
	if entry["traceId"] != traceID {
		t.Errorf("traceId = %v, want %q", entry["traceId"], traceID)
	}
	if entry["route"] != "/v1/plan" {
		t.Errorf("route = %v", entry["route"])
	}
	if entry["status"] != float64(http.StatusOK) {
		t.Errorf("status = %v", entry["status"])
	}
	if entry["cached"] != false {
		t.Errorf("cached = %v, want false", entry["cached"])
	}
	stages, ok := entry["stages"].(map[string]any)
	if !ok {
		t.Fatalf("log line has no stages group: %v", entry)
	}
	if _, ok := stages["solve"]; !ok {
		t.Errorf("stages group %v is missing the solve span", stages)
	}
}

// TestMetricsExposeStageHistograms checks the Prometheus surface: after one
// plan request the chronosd_stage_seconds family carries per-stage series
// with counts, and the replay_emit stage stays absent until a replay runs.
func TestMetricsExposeStageHistograms(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/plan", api.PlanRequest{Job: testJob(), Econ: testEcon()})
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	text := getMetricsText(t, ts.URL)
	for _, stage := range []string{"quantize", "cache", "solve"} {
		line := `chronosd_stage_seconds_count{stage="` + stage + `"}`
		if got := metricValue(text, line); got != "1" {
			t.Errorf("%s = %q, want 1", line, got)
		}
	}
	emitLine := `chronosd_stage_seconds_count{stage="replay_emit"}`
	if got := metricValue(text, emitLine); got != "" && got != "0" {
		t.Errorf("%s = %q before any replay", emitLine, got)
	}
}

// TestReplaySummaryCarriesTraceID streams a small replay and asserts the
// final replay_summary event is stamped with the request's trace ID, so a
// stored stream output can be joined back to the server-side logs.
func TestReplaySummaryCarriesTraceID(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := api.ReplayRequest{
		Config:    smallSimConfig(),
		Benchmark: &api.ReplayBenchmark{Name: "Sort", Jobs: 3, Tasks: 5},
	}
	resp := postJSON(t, ts.URL+"/v1/replay", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	traceID := resp.Header.Get(obs.TraceHeader)

	var summaryTrace string
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var ev map[string]any
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		switch ev["event"] {
		case "replay_summary":
			summaryTrace, _ = ev["traceId"].(string)
		default:
			if id, ok := ev["traceId"]; ok {
				t.Errorf("event %v carries a trace ID %v; only replay_summary should", ev["event"], id)
			}
		}
	}
	if summaryTrace != traceID {
		t.Errorf("replay_summary traceId = %q, want response header's %q", summaryTrace, traceID)
	}
}

// syncWriter serializes writes from the handler goroutines with the test's
// reads.
type syncWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
