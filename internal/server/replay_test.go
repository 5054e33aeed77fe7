package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"chronos"
	"chronos/api"
	"chronos/internal/tenant"
)

// tinyStream builds n cheap one-task jobs arriving steadily.
func tinyStream(n int) []chronos.SimJob {
	jobs := make([]chronos.SimJob, n)
	for i := range jobs {
		jobs[i] = chronos.SimJob{
			Tasks: 1, Deadline: 120, TMin: 5, Beta: 1.5,
			Arrival: float64(i),
		}
	}
	return jobs
}

func smallSimConfig() chronos.SimConfig {
	return chronos.SimConfig{
		Strategy: chronos.SpeculativeResume, Seed: 9,
		Nodes: 8, SlotsPerNode: 8,
	}
}

// readEvents decodes every NDJSON line of the response body.
func readEvents(t *testing.T, resp *http.Response) []chronos.ReplayEvent {
	t.Helper()
	defer resp.Body.Close()
	var events []chronos.ReplayEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var ev chronos.ReplayEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestReplayStreamsBeyondSimulateCap replays a stream larger than the
// /v1/simulate job ceiling and checks the full event protocol.
func TestReplayStreamsBeyondSimulateCap(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	n := s.cfg.MaxSimJobs + 100 // over the one-shot cap by construction

	resp := postJSON(t, ts.URL+"/v1/replay", map[string]any{
		"config":        smallSimConfig(),
		"jobs":          tinyStream(n),
		"windowSeconds": 60,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	events := readEvents(t, resp)

	completed, windows := 0, 0
	for _, ev := range events {
		switch ev.Kind {
		case chronos.EventJobCompleted:
			completed++
		case chronos.EventWindowSummary:
			windows++
		}
	}
	if completed != n {
		t.Fatalf("completed events = %d, want %d", completed, n)
	}
	if windows == 0 {
		t.Fatal("no window summaries streamed")
	}
	final := events[len(events)-1]
	if final.Kind != chronos.EventReplaySummary || final.Summary == nil || final.Summary.Jobs != n {
		t.Fatalf("bad final event: %+v", final)
	}
	if got := s.metrics.replayJobs.Value(); got != uint64(n) {
		t.Fatalf("replay jobs metric = %d, want %d", got, n)
	}
	if s.metrics.replaysActive.Load() != 0 {
		t.Fatal("active replays gauge not back to zero")
	}
	if got := s.metrics.replaysStarted.Value(); got != 1 {
		t.Errorf("replays started metric = %d, want 1", got)
	}
	if got := s.metrics.replayEvents.Value(); got != uint64(len(events)) {
		t.Errorf("replay events metric = %d, want the %d lines streamed", got, len(events))
	}
}

// TestReplayServerSideGeneration exercises both generation sources.
func TestReplayServerSideGeneration(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp := postJSON(t, ts.URL+"/v1/replay", map[string]any{
		"config": smallSimConfig(),
		"trace":  map[string]any{"jobs": 30, "horizonSeconds": 1200, "deadlineRatio": 2, "seed": 5},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d", resp.StatusCode)
	}
	events := readEvents(t, resp)
	if final := events[len(events)-1]; final.Kind != chronos.EventReplaySummary || final.Summary.Jobs != 30 {
		t.Fatalf("trace replay final: %+v", final)
	}

	resp = postJSON(t, ts.URL+"/v1/replay", map[string]any{
		"config":    smallSimConfig(),
		"benchmark": map[string]any{"name": "wordcount", "jobs": 5, "tasks": 8, "spacingSeconds": 200},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("benchmark status = %d", resp.StatusCode)
	}
	events = readEvents(t, resp)
	if final := events[len(events)-1]; final.Kind != chronos.EventReplaySummary || final.Summary.Jobs != 5 {
		t.Fatalf("benchmark replay final: %+v", final)
	}
}

func TestReplayValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxReplayJobs: 50})
	cases := []map[string]any{
		{"config": smallSimConfig()}, // no source
		{"config": smallSimConfig(), "jobs": tinyStream(3),
			"trace": map[string]any{"jobs": 5}}, // two sources
		{"config": smallSimConfig(), "trace": map[string]any{"jobs": 51}},                                // over cap
		{"config": smallSimConfig(), "benchmark": map[string]any{"name": "nope", "jobs": 2, "tasks": 2}}, // unknown benchmark
		{"config": smallSimConfig(), "jobs": tinyStream(3), "windowSeconds": -1},                         // bad window
		{"config": smallSimConfig(), "jobs": tinyStream(3), "windowSeconds": 1e-9},                       // degenerate window
		{"config": chronos.SimConfig{Strategy: chronos.Clone, Nodes: 1 << 20},
			"jobs": tinyStream(3)}, // cluster bound
	}
	for i, body := range cases {
		resp := postJSON(t, ts.URL+"/v1/replay", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status = %d, want 400", i, resp.StatusCode)
		}
	}
}

// TestReplayClientDisconnect cancels the request mid-stream and checks the
// server abandons the replay promptly instead of running it to completion.
func TestReplayClientDisconnect(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// Far more work than the few events the client reads; generated
	// server-side, so the request body stays tiny.
	n := 20000

	body, err := json.Marshal(map[string]any{
		"config":    smallSimConfig(),
		"benchmark": map[string]any{"name": "WordCount", "jobs": n, "tasks": 4, "spacingSeconds": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/replay", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}

	// Read a handful of events, then vanish.
	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < 5 && sc.Scan(); i++ {
	}
	cancel()

	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.replaysActive.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("replay still active 5s after client disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := s.metrics.replayJobs.Value(); got >= uint64(n) {
		t.Fatalf("replay ran to completion (%d jobs) despite disconnect", got)
	}
}

// TestReplayConcurrencyCap holds one stream open and checks the next stream
// and a simulation are turned away with 503 instead of stacking unbounded
// CPU commitments.
func TestReplayConcurrencyCap(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxActiveReplays: 1})
	body, err := json.Marshal(map[string]any{
		"config":    smallSimConfig(),
		"benchmark": map[string]any{"name": "WordCount", "jobs": 20000, "tasks": 4, "spacingSeconds": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/replay", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() { // the stream is live and holding the only slot
		t.Fatal("first replay produced no events")
	}

	second := postJSON(t, ts.URL+"/v1/replay", map[string]any{
		"config": smallSimConfig(), "jobs": tinyStream(3),
	})
	second.Body.Close()
	if second.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second replay status = %d, want 503", second.StatusCode)
	}
	if second.Header.Get("Retry-After") == "" {
		t.Error("503 missing Retry-After")
	}

	// /v1/simulate runs the same replay core and takes the same slot; it used
	// to run beside the cap without bound.
	sim := postJSON(t, ts.URL+"/v1/simulate", map[string]any{
		"config": smallSimConfig(), "jobs": tinyStream(3),
	})
	sim.Body.Close()
	if sim.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("simulate status = %d, want 503", sim.StatusCode)
	}
	if sim.Header.Get("Retry-After") == "" {
		t.Error("simulate 503 missing Retry-After")
	}
}

// TestReplayTenantExhaustion drains a small pool mid-replay and expects a
// budget_exhausted event to end the stream.
func TestReplayTenantExhaustion(t *testing.T) {
	reg, err := tenant.NewRegistry(map[string]tenant.Limits{
		"etl": {Budget: 2000}, // a few tiny jobs' worth of machine time
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Tenants: reg})

	resp := postJSON(t, ts.URL+"/v1/replay", map[string]any{
		"config": smallSimConfig(),
		"jobs":   tinyStream(300),
		"tenant": "etl",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	events := readEvents(t, resp)
	final := events[len(events)-1]
	if final.Kind != chronos.EventBudgetExhausted {
		t.Fatalf("final event %q, want budget_exhausted", final.Kind)
	}
	if final.Tenant != "etl" || final.Remaining == nil || final.Needed <= *final.Remaining {
		t.Fatalf("bad budget_exhausted payload: %+v", final)
	}
	completed := 0
	for _, ev := range events {
		if ev.Kind == chronos.EventJobCompleted {
			completed++
		}
	}
	if completed == 0 || completed >= 300 {
		t.Fatalf("completed %d jobs before exhaustion, want some but not all", completed)
	}
	if rem := reg.Get("etl").Remaining(); rem >= 2000 {
		t.Fatalf("pool was never debited: %g remaining", rem)
	}

	resp = postJSON(t, ts.URL+"/v1/replay", map[string]any{
		"config": smallSimConfig(), "jobs": tinyStream(3), "tenant": "ghost",
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant status = %d, want 404", resp.StatusCode)
	}
}

// TestSimulateHonorsContext pins the satellite bugfix: /v1/simulate no
// longer runs to completion for a client that is already gone.
func TestSimulateHonorsContext(t *testing.T) {
	s := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body, err := json.Marshal(api.SimulateRequest{Config: smallSimConfig(), Jobs: tinyStream(50)})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Body.Len() != 0 {
		t.Fatalf("cancelled simulate wrote a body: %q", rec.Body.String())
	}
}

// TestSimulateAndReplayRejectBadControl: a well-formed body whose control
// instant lies before its stage, or whose fixed r is unbounded, is a 400 with
// the JSON error envelope on both endpoints — it used to panic the handler
// (the connection dropped with no HTTP answer) or launch r+1 = four million
// attempts of one task (200 after seconds and a gigabyte).
func TestSimulateAndReplayRejectBadControl(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post := func(path, config string) (*http.Response, time.Duration) {
		t.Helper()
		body := `{"config":` + config + `,"jobs":[{"tasks":4,"deadline":100,"tmin":10,"beta":1.5}]}`
		start := time.Now()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s %s: %v", path, config, err)
		}
		return resp, time.Since(start)
	}
	for _, path := range []string{"/v1/simulate", "/v1/replay"} {
		for _, config := range []string{
			`{"strategy":"Speculative-Restart","tauEst":-5,"tauKill":1}`,
			`{"strategy":"Clone","tauKill":-1}`,
			`{"strategy":"Clone","tauEst":0.3,"tauKill":0.6,"tauScale":2}`,
			`{"strategy":"Clone","useFixedR":true,"fixedR":4000000}`,
		} {
			resp, took := post(path, config)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400", path, config, resp.StatusCode)
			}
			if env := decodeBody[api.ErrorResponse](t, resp); env.Error == "" || env.Code == "" || env.TraceID == "" {
				t.Errorf("%s %s: error envelope %+v incomplete", path, config, env)
			}
			if took > 50*time.Millisecond {
				t.Errorf("%s %s: answered after %v", path, config, took)
			}
		}
	}
	// A small fixed r still simulates, and a negative one still means "use
	// the optimizer".
	histogram := func(config string) map[int]int {
		resp, _ := post("/v1/simulate", config)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, want 200", config, resp.StatusCode)
		}
		return decodeBody[api.SimulateResponse](t, resp).RHistogram
	}
	if got := histogram(`{"strategy":"Clone","useFixedR":true,"fixedR":3}`); got[3] != 1 {
		t.Errorf("fixedR 3: rHistogram %v, want {3: 1}", got)
	}
	planned := histogram(`{"strategy":"Clone"}`)
	if got := histogram(`{"strategy":"Clone","useFixedR":true,"fixedR":-1}`); !reflect.DeepEqual(got, planned) {
		t.Errorf("negative fixedR: rHistogram %v, want the optimizer's %v", got, planned)
	}
}

// heavyTailJobs are well-formed simulated jobs whose task-time law has no
// mean: a tail index at or below 1, on the map stage or on a reduce stage that
// sets its own.
var heavyTailJobs = []string{
	`{"tasks":4,"deadline":100,"tmin":10,"beta":0.5}`,
	`{"tasks":4,"deadline":100,"tmin":10,"beta":1}`,
	`{"tasks":12,"deadline":20,"tmin":10,"beta":0.00625,"reduceTasks":2}`,
	`{"tasks":4,"deadline":100,"tmin":10,"beta":1.5,"reduceTasks":2,"reduceBeta":0.9}`,
}

// rejectsHeavyTail posts each such job to path and requires the planner's own
// rejection: a 400 envelope naming the rule, where the simulator used to
// sample astronomically long tasks and answer 200 — or 500 `response encoding
// failed` once a sum overflowed.
func rejectsHeavyTail(t *testing.T, path string) {
	_, ts := newTestServer(t, Config{})
	for _, job := range heavyTailJobs {
		body := `{"config":{"strategy":"Clone","tauEst":40,"tauKill":80,"tauScale":1},"jobs":[` + job + `]}`
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s %s: %v", path, job, err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400", path, job, resp.StatusCode)
		}
		if env := decodeBody[api.ErrorResponse](t, resp); !strings.Contains(env.Error, "beta must exceed 1") || env.Code != api.CodeBadRequest {
			t.Errorf("%s %s: error envelope %+v, want bad_request naming the beta rule", path, job, env)
		}
	}
}

func TestSimulateRejectsHeavyTail(t *testing.T) { rejectsHeavyTail(t, "/v1/simulate") }

// TestReplayRejectsHeavyTail: the rejection comes before any stream line.
func TestReplayRejectsHeavyTail(t *testing.T) { rejectsHeavyTail(t, "/v1/replay") }

// rejectsOnBoth posts every body to /v1/simulate and to /v1/replay and
// requires a 400 bad_request envelope whose message contains want: on
// /v1/replay that is the answer before any stream line.
func rejectsOnBoth(t *testing.T, bodies []string, want string) {
	t.Helper()
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/simulate", "/v1/replay"} {
		for _, body := range bodies {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("POST %s %s: %v", path, body, err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400", path, body, resp.StatusCode)
			}
			if env := decodeBody[api.ErrorResponse](t, resp); !strings.Contains(env.Error, want) || env.Code != api.CodeBadRequest {
				t.Errorf("%s %s: error envelope %+v, want bad_request containing %q", path, body, env, want)
			}
		}
	}
}

// The control instants and the one job the simulated-request tests below
// vary one field of.
const (
	simControl = `"strategy":"Clone","tauEst":40,"tauKill":80,"tauScale":1`
	simJob     = `"tasks":4,"deadline":100,"tmin":10,"beta":1.5`
)

// TestSimulateAndReplayRejectBadEcon: a theta or unit price that is
// negative, non-finite or above the cap is a 400 on both endpoints, on
// /v1/replay before any stream line. /v1/simulate used to answer the 1e308
// bodies 500 `response encoding failed`, the negative prices 200 with a
// negative cost and a positive utility, theta -1 200 with utility 97.5 and
// theta 1e308 200 with `"utility":null`; /v1/replay streamed the job price
// into an in-band error event.
func TestSimulateAndReplayRejectBadEcon(t *testing.T) {
	rejectsOnBoth(t, []string{
		`{"config":{` + simControl + `,"econ":{"theta":1e-4,"unitPrice":1e308}},"jobs":[{` + simJob + `}]}`,
		`{"config":{` + simControl + `},"jobs":[{` + simJob + `,"unitPrice":1e308}]}`,
		`{"config":{` + simControl + `,"econ":{"theta":1e-4,"unitPrice":-5}},"jobs":[{` + simJob + `}]}`,
		`{"config":{` + simControl + `},"jobs":[{` + simJob + `,"unitPrice":-5}]}`,
		`{"config":{` + simControl + `,"econ":{"theta":-1,"unitPrice":1}},"jobs":[{` + simJob + `}]}`,
		`{"config":{` + simControl + `,"econ":{"theta":1e308,"unitPrice":1}},"jobs":[{` + simJob + `}]}`,
	}, "must be in [0, 1e+06]")
}

// TestSimulateAndReplayRejectUnknownConfigKeys: the simulation config is
// decoded strictly, so a misspelt knob, or one the simulator no longer has,
// is a 400 on both endpoints. Each used to answer 200, the run simulated
// without it.
func TestSimulateAndReplayRejectUnknownConfigKeys(t *testing.T) {
	rejectsOnBoth(t, []string{
		`{"config":{"strategy":"Clone","tauEts":0.3},"jobs":[{` + simJob + `}]}`,
		`{"config":{` + simControl + `,"spot":{"mean":2}},"jobs":[{` + simJob + `}]}`,
		`{"config":{` + simControl + `,"failures":{"mtbf":600}},"jobs":[{` + simJob + `}]}`,
		`{"config":{` + simControl + `,"contentionP":0.2,"contentionMean":2.5},"jobs":[{` + simJob + `}]}`,
	}, "unknown field")
}

// TestSimulateAndReplayRejectUnboundedTimes: a start-up delay or a task-time
// scale above the deadline cap is a 400 on both endpoints. Each overflowed
// machine time to +Inf: /v1/simulate answered 500 `response encoding failed`,
// /v1/replay a 200 and then an in-band error event.
func TestSimulateAndReplayRejectUnboundedTimes(t *testing.T) {
	rejectsOnBoth(t, []string{
		`{"config":{` + simControl + `,"jvmMin":1e308,"jvmMax":1e308},"jobs":[{` + simJob + `}]}`,
	}, "jvmMin and jvmMax must be in [0, 100000]")
	rejectsOnBoth(t, []string{
		`{"config":{` + simControl + `},"jobs":[{"tasks":4,"deadline":100,"tmin":1e308,"beta":1.5}]}`,
		`{"config":{` + simControl + `},"jobs":[{` + simJob + `,"reduceTasks":2,"reduceTMin":1e308}]}`,
	}, "tmin and reduceTMin must be at most 100000")
}

// TestReplaySeqGaplessAfterFailedEncode: a line that cannot be encoded is not
// written, so it must not consume a sequence number — the in-band error event
// that follows takes the number it left free. The stream used to record the
// number before encoding and skip it.
func TestReplaySeqGaplessAfterFailedEncode(t *testing.T) {
	for _, good := range []int{0, 1, 3} {
		rec := httptest.NewRecorder()
		st := &ndjsonStream{w: rec, rc: http.NewResponseController(rec), m: newServerMetrics()}
		for seq := range good {
			if err := st.write(&chronos.ReplayEvent{Kind: chronos.EventJobPlanned, Seq: uint64(seq), Time: 1}); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.write(&chronos.ReplayEvent{Kind: chronos.EventJobPlanned, Seq: uint64(good), Time: math.Inf(1)}); err == nil {
			t.Fatal("an infinite event time encoded")
		}
		if err := st.write(&chronos.ReplayEvent{Kind: chronos.EventError, Seq: st.nextSeq, Error: "boom"}); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
		if len(lines) != good+1 {
			t.Fatalf("%d good lines: streamed %d lines, want %d: %q", good, len(lines), good+1, lines)
		}
		for i, line := range lines {
			var ev chronos.ReplayEvent
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("line %d: %v: %q", i, err, line)
			}
			if ev.Seq != uint64(i) {
				t.Errorf("%d good lines: line %d (%s) has seq %d, want %d", good, i, ev.Kind, ev.Seq, i)
			}
		}
	}
}

// flushLog is a ResponseWriter and Flusher that records the order of writes
// and flushes, and how much of the body each flush covered.
type flushLog struct {
	h    http.Header
	code int
	body bytes.Buffer
	// ops holds one 'w' per Write and one 'f' per Flush; flushedAt the body
	// length at each flush.
	ops       []byte
	flushedAt []int
}

func (w *flushLog) Header() http.Header  { return w.h }
func (w *flushLog) WriteHeader(code int) { w.code = code }
func (w *flushLog) Write(p []byte) (int, error) {
	w.ops = append(w.ops, 'w')
	return w.body.Write(p)
}
func (w *flushLog) Flush() {
	w.ops = append(w.ops, 'f')
	w.flushedAt = append(w.flushedAt, w.body.Len())
}

// TestReplayFlushPolicy pins how /v1/replay groups its lines into flushes:
// the first event at once, then at most one flush per replayFlushEvery of
// wall time, and always the event that ends the stream — with every line
// still written whole and in order.
func TestReplayFlushPolicy(t *testing.T) {
	reg, err := tenant.NewRegistry(map[string]tenant.Limits{"etl": {Budget: 2000}})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Tenants: reg})
	for _, tc := range []struct {
		name, tenant string
		final        chronos.ReplayEventKind
	}{
		{"complete", "", chronos.EventReplaySummary},
		{"budget exhausted", "etl", chronos.EventBudgetExhausted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := json.Marshal(map[string]any{
				"config": smallSimConfig(), "jobs": tinyStream(500), "tenant": tc.tenant,
			})
			if err != nil {
				t.Fatal(err)
			}
			w := &flushLog{h: make(http.Header)}
			start := time.Now()
			s.handleReplay(w, httptest.NewRequest(http.MethodPost, "/v1/replay", bytes.NewReader(raw)))
			wall := time.Since(start)
			if w.code != http.StatusOK {
				t.Fatalf("status = %d: %s", w.code, w.body.String())
			}

			lines := bytes.Split(bytes.TrimSuffix(w.body.Bytes(), []byte("\n")), []byte("\n"))
			var last chronos.ReplayEvent
			for i, line := range lines {
				last = chronos.ReplayEvent{}
				if err := json.Unmarshal(line, &last); err != nil {
					t.Fatalf("line %d is not a whole JSON object: %v: %q", i, err, line)
				}
				if last.Seq != uint64(i) {
					t.Fatalf("line %d has seq %d", i, last.Seq)
				}
			}
			if last.Kind != tc.final {
				t.Fatalf("final event %q, want %q", last.Kind, tc.final)
			}
			if writes := bytes.Count(w.ops, []byte("w")); writes != len(lines) {
				t.Errorf("%d writes for %d lines, want one write per line", writes, len(lines))
			}

			if !bytes.HasPrefix(w.ops, []byte("wf")) {
				t.Errorf("stream began %q, want the first event flushed before the second is written", w.ops[:min(len(w.ops), 4)])
			}
			if n := len(w.flushedAt); w.ops[len(w.ops)-1] != 'f' || w.flushedAt[n-1] != w.body.Len() {
				t.Errorf("the %s event was not flushed", tc.final)
			}
			// One flush per replayFlushEvery at most, plus the first and the
			// last; a flush per line would be len(lines) of them.
			most := int((wall+replayFlushEvery-1)/replayFlushEvery) + 2
			if n := len(w.flushedAt); n < 2 || n > most {
				t.Errorf("%d flushes for %d lines over %v, want between 2 and %d", n, len(lines), wall, most)
			}
		})
	}
}
