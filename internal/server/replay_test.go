package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"chronos"
	"chronos/api"
	"chronos/internal/obs"
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

// TestReplayStreamProtocol replays a 600-job stream and checks the full
// event protocol and the replay metrics.
func TestReplayStreamProtocol(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const n = 600

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
// is turned away with 503 instead of stacking unbounded CPU commitments.
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

}

// TestSimulateHonorsContext: a /v1/replay whose client is gone before the
// first event writes nothing. It used to answer 400 "context canceled", a
// client error in chronosd_requests_total and the request log for a request
// no one was left to read. Nor is it a 200: chronosd_requests_total and the
// request line count it as 499, client closed.
func TestSimulateHonorsContext(t *testing.T) {
	var log bytes.Buffer
	s := New(Config{Logger: slog.New(obs.NewHandler(&log, slog.LevelInfo))})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body, err := json.Marshal(api.ReplayRequest{Config: smallSimConfig(), Jobs: tinyStream(50)})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/replay", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Body.Len() != 0 {
		t.Fatalf("cancelled replay wrote a body: %q", rec.Body.String())
	}

	var line struct {
		Route  string `json:"route"`
		Status int    `json:"status"`
	}
	if err := json.Unmarshal(log.Bytes(), &line); err != nil {
		t.Fatalf("request line %q: %v", log.String(), err)
	}
	if line.Route != "/v1/replay" || line.Status != 499 {
		t.Errorf("request line %q: want route /v1/replay, status 499", log.String())
	}

	scrape := httptest.NewRecorder()
	s.Handler().ServeHTTP(scrape, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var replays []string
	for _, l := range strings.Split(scrape.Body.String(), "\n") {
		if strings.HasPrefix(l, `chronosd_requests_total{endpoint="/v1/replay"`) {
			replays = append(replays, l)
		}
	}
	if want := `chronosd_requests_total{endpoint="/v1/replay",code="499"} 1`; len(replays) != 1 || replays[0] != want {
		t.Errorf("/metrics counts the replay as %q, want [%s]", replays, want)
	}
}

// TestSimulateRouteGone: POST /v1/replay is the one HTTP path that runs a
// simulation; the one-shot /v1/simulate route it duplicated is a 404.
func TestSimulateRouteGone(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/simulate", api.ReplayRequest{Config: smallSimConfig(), Jobs: tinyStream(3)})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /v1/simulate: status %d, want 404", resp.StatusCode)
	}
}

// replaySummary posts body to /v1/replay and returns the stream's final
// replay_summary.
func replaySummary(t *testing.T, url string, body any) *chronos.ReplaySummary {
	t.Helper()
	resp := postJSON(t, url+"/v1/replay", body)
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	events := readEvents(t, resp)
	final := events[len(events)-1]
	if final.Kind != chronos.EventReplaySummary || final.Summary == nil {
		t.Fatalf("stream ended in %+v, want a replay_summary", final)
	}
	return final.Summary
}

// The strategy and the two jobs of the one-shot simulation body the replay
// tests below send.
var (
	replayConfig = chronos.SimConfig{
		Strategy: chronos.SpeculativeResume, Seed: 7,
		TauEst: 40, TauKill: 80, TauScale: chronos.TauAbsolute,
	}
	replayJobs = []chronos.SimJob{
		{Tasks: 10, Deadline: 100, TMin: 10, Beta: 1.5},
		{Tasks: 10, Deadline: 100, TMin: 10, Beta: 1.5, Arrival: 50},
	}
)

// TestReplayMatchesSimulate: the final replay_summary of a stream carries
// the library Simulate's report for the same config and jobs, bit for bit,
// so what the one-shot route answered is still one request away.
func TestReplayMatchesSimulate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	want, err := chronos.Simulate(replayConfig, replayJobs)
	if err != nil {
		t.Fatal(err)
	}
	got := replaySummary(t, ts.URL, api.ReplayRequest{Config: replayConfig, Jobs: replayJobs})
	if got.Jobs != want.Jobs ||
		math.Float64bits(got.PoCD) != math.Float64bits(want.PoCD) ||
		math.Float64bits(got.MeanMachineTime) != math.Float64bits(want.MeanMachineTime) ||
		math.Float64bits(got.MeanCost) != math.Float64bits(want.MeanCost) {
		t.Errorf("replay_summary %+v, want Simulate's %+v", *got, want)
	}
	if len(want.RHistogram) == 0 || !reflect.DeepEqual(got.RHistogram, want.RHistogram) {
		t.Errorf("rHistogram %v, want Simulate's non-empty %v", got.RHistogram, want.RHistogram)
	}
}

// TestSimulateEndpoint: /v1/replay, the one HTTP path that runs a
// simulation, turns away a job stream past each serving bound with a 400
// before any stream line.
func TestSimulateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rejects := func(t *testing.T, cfg chronos.SimConfig, jobs []chronos.SimJob) {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/replay", api.ReplayRequest{Config: cfg, Jobs: jobs})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	}

	t.Run("no jobs", func(t *testing.T) { rejects(t, replayConfig, nil) })

	t.Run("job too large", func(t *testing.T) {
		rejects(t, replayConfig, []chronos.SimJob{{Tasks: replayMaxJobTasks + 1, Deadline: 100, TMin: 10, Beta: 1.5}})
	})

	t.Run("negative reduce tasks cannot bypass caps", func(t *testing.T) {
		// Map tasks over the per-job cap disguised by a negative reduce
		// count: the sum is under the cap, but the negative count must be
		// rejected.
		rejects(t, replayConfig, []chronos.SimJob{{
			Tasks: replayMaxJobTasks + 50, ReduceTasks: -60, Deadline: 100, TMin: 10, Beta: 1.5,
		}})
	})

	t.Run("oversized cluster", func(t *testing.T) {
		huge := replayConfig
		huge.Nodes = 500_000_000
		rejects(t, huge, []chronos.SimJob{{Tasks: 10, Deadline: 100, TMin: 10, Beta: 1.5}})
	})

	t.Run("extreme deadline", func(t *testing.T) {
		rejects(t, replayConfig, []chronos.SimJob{{Tasks: 10, Deadline: 1e18, TMin: 10, Beta: 1.5}})
	})
}

// TestReplayRejectsBadControl: a well-formed body whose control instant lies
// before its stage, or whose fixed r is unbounded, is a 400 with the JSON
// error envelope — it used to panic the handler (the connection dropped with
// no HTTP answer) or launch r+1 = four million attempts of one task (200
// after seconds and a gigabyte).
func TestReplayRejectsBadControl(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const job = `{"tasks":4,"deadline":100,"tmin":10,"beta":1.5}`
	for _, config := range []string{
		`{"strategy":"Speculative-Restart","tauEst":-5,"tauKill":1}`,
		`{"strategy":"Clone","tauKill":-1}`,
		`{"strategy":"Clone","tauEst":0.3,"tauKill":0.6,"tauScale":2}`,
		`{"strategy":"Clone","useFixedR":true,"fixedR":4000000}`,
	} {
		start := time.Now()
		resp, err := http.Post(ts.URL+"/v1/replay", "application/json",
			strings.NewReader(`{"config":`+config+`,"jobs":[`+job+`]}`))
		if err != nil {
			t.Fatalf("POST %s: %v", config, err)
		}
		took := time.Since(start)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", config, resp.StatusCode)
		}
		if env := decodeBody[api.ErrorResponse](t, resp); env.Error == "" || env.Code == "" || env.TraceID == "" {
			t.Errorf("%s: error envelope %+v incomplete", config, env)
		}
		if took > 50*time.Millisecond {
			t.Errorf("%s: answered after %v", config, took)
		}
	}
	// A small fixed r still simulates, and a negative one still means "use
	// the optimizer".
	histogram := func(config string) map[int]int {
		return replaySummary(t, ts.URL, json.RawMessage(`{"config":`+config+`,"jobs":[`+job+`]}`)).RHistogram
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

// TestReplayRejectsHeavyTail posts each such job and requires the planner's
// own rejection before any stream line: a 400 envelope naming the rule, where
// the simulator used to sample astronomically long tasks and answer 200 — or
// 500 `response encoding failed` once a sum overflowed.
func TestReplayRejectsHeavyTail(t *testing.T) {
	var bodies []string
	for _, job := range heavyTailJobs {
		bodies = append(bodies, `{"config":{"strategy":"Clone","tauEst":40,"tauKill":80,"tauScale":1},"jobs":[`+job+`]}`)
	}
	replayRejects(t, bodies, "beta must exceed 1")
}

// replayRejects posts every body to /v1/replay and requires a 400
// bad_request envelope whose message contains want: the answer before any
// stream line.
func replayRejects(t *testing.T, bodies []string, want string) {
	t.Helper()
	_, ts := newTestServer(t, Config{})
	for _, body := range bodies {
		resp, err := http.Post(ts.URL+"/v1/replay", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", body, err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
		if env := decodeBody[api.ErrorResponse](t, resp); !strings.Contains(env.Error, want) || env.Code != api.CodeBadRequest {
			t.Errorf("%s: error envelope %+v, want bad_request containing %q", body, env, want)
		}
	}
}

// The control instants and the one job the simulated-request tests below
// vary one field of.
const (
	simControl = `"strategy":"Clone","tauEst":40,"tauKill":80,"tauScale":1`
	simJob     = `"tasks":4,"deadline":100,"tmin":10,"beta":1.5`
)

// TestReplayRejectsBadEcon: a theta or unit price that is negative,
// non-finite or above the cap is a 400 before any stream line. A 1e308 price
// used to overflow the reported cost and a negative one to report a negative
// cost with a positive utility; /v1/replay streamed the job price into an
// in-band error event.
func TestReplayRejectsBadEcon(t *testing.T) {
	replayRejects(t, []string{
		`{"config":{` + simControl + `,"econ":{"theta":1e-4,"unitPrice":1e308}},"jobs":[{` + simJob + `}]}`,
		`{"config":{` + simControl + `},"jobs":[{` + simJob + `,"unitPrice":1e308}]}`,
		`{"config":{` + simControl + `,"econ":{"theta":1e-4,"unitPrice":-5}},"jobs":[{` + simJob + `}]}`,
		`{"config":{` + simControl + `},"jobs":[{` + simJob + `,"unitPrice":-5}]}`,
		`{"config":{` + simControl + `,"econ":{"theta":-1,"unitPrice":1}},"jobs":[{` + simJob + `}]}`,
		`{"config":{` + simControl + `,"econ":{"theta":1e308,"unitPrice":1}},"jobs":[{` + simJob + `}]}`,
	}, "must be in [0, 1e+06]")
}

// TestReplayRejectsUnknownConfigKeys: the simulation config is decoded
// strictly, so a misspelt knob, or one the simulator no longer has, is a 400.
// Each used to answer 200, the run simulated without it.
func TestReplayRejectsUnknownConfigKeys(t *testing.T) {
	replayRejects(t, []string{
		`{"config":{"strategy":"Clone","tauEts":0.3},"jobs":[{` + simJob + `}]}`,
		`{"config":{` + simControl + `,"spot":{"mean":2}},"jobs":[{` + simJob + `}]}`,
		`{"config":{` + simControl + `,"failures":{"mtbf":600}},"jobs":[{` + simJob + `}]}`,
		`{"config":{` + simControl + `,"contentionP":0.2,"contentionMean":2.5},"jobs":[{` + simJob + `}]}`,
	}, "unknown field")
}

// TestReplayRejectsUnboundedTimes: a start-up delay or a task-time scale
// above the deadline cap is a 400. Each overflowed machine time to +Inf, and
// /v1/replay answered a 200 and then an in-band error event.
func TestReplayRejectsUnboundedTimes(t *testing.T) {
	replayRejects(t, []string{
		`{"config":{` + simControl + `,"jvmMin":1e308,"jvmMax":1e308},"jobs":[{` + simJob + `}]}`,
	}, "jvmMin and jvmMax must be in [0, 100000]")
	replayRejects(t, []string{
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
	s := New(Config{})
	t.Run("complete", func(t *testing.T) {
		raw, err := json.Marshal(map[string]any{"config": smallSimConfig(), "jobs": tinyStream(500)})
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
		if last.Kind != chronos.EventReplaySummary {
			t.Fatalf("final event %q, want replay_summary", last.Kind)
		}
		if writes := bytes.Count(w.ops, []byte("w")); writes != len(lines) {
			t.Errorf("%d writes for %d lines, want one write per line", writes, len(lines))
		}

		if !bytes.HasPrefix(w.ops, []byte("wf")) {
			t.Errorf("stream began %q, want the first event flushed before the second is written", w.ops[:min(len(w.ops), 4)])
		}
		if n := len(w.flushedAt); w.ops[len(w.ops)-1] != 'f' || w.flushedAt[n-1] != w.body.Len() {
			t.Error("the replay_summary event was not flushed")
		}
		// One flush per replayFlushEvery at most, plus the first and the
		// last; a flush per line would be len(lines) of them.
		most := int((wall+replayFlushEvery-1)/replayFlushEvery) + 2
		if n := len(w.flushedAt); n < 2 || n > most {
			t.Errorf("%d flushes for %d lines over %v, want between 2 and %d", n, len(lines), wall, most)
		}
	})
}
