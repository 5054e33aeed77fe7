package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMintIDShapeAndUniqueness(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := MintID()
		if len(id) != 32 {
			t.Fatalf("MintID() = %q, want 32 hex chars", id)
		}
		if !ValidID(id) {
			t.Fatalf("MintID() = %q is not a valid inbound ID", id)
		}
		if seen[id] {
			t.Fatalf("duplicate ID %q after %d mints", id, i)
		}
		seen[id] = true
	}
}

func TestValidID(t *testing.T) {
	cases := []struct {
		id string
		ok bool
	}{
		{"abc-DEF_0.9", true},
		{"", false},
		{strings.Repeat("a", 64), true},
		{strings.Repeat("a", 65), false},
		{"has space", false},
		{"new\nline", false},
		{"quote\"", false},
	}
	for _, c := range cases {
		if got := ValidID(c.id); got != c.ok {
			t.Errorf("ValidID(%q) = %v, want %v", c.id, got, c.ok)
		}
	}
}

func TestNewTraceHonorsAndMints(t *testing.T) {
	tr := NewTrace("caller-chosen", "/v1/plan")
	if tr.ID != "caller-chosen" {
		t.Errorf("honored ID = %q, want caller-chosen", tr.ID)
	}
	tr = NewTrace("bad id\n", "/v1/plan")
	if tr.ID == "bad id\n" || len(tr.ID) != 32 {
		t.Errorf("unusable inbound ID should be replaced, got %q", tr.ID)
	}
}

func TestTraceSnapshotStages(t *testing.T) {
	tr := NewTrace("", "/v1/plan")
	tr.Observe(StageCache, 100*time.Microsecond)
	tr.Observe(StageSolve, 2*time.Millisecond)
	tr.Observe(StageSolve, 3*time.Millisecond)
	tr.SetTenant("acme")
	tr.SetCached(false)
	snap := tr.Finish(200, 6*time.Millisecond, "http://a", true)
	if snap.StageCounts[StageCache] != 1 || snap.StageCounts[StageSolve] != 2 {
		t.Fatalf("stage counts = %v", snap.StageCounts)
	}
	if got := snap.StageSeconds(StageSolve); got < 0.0049 || got > 0.0051 {
		t.Errorf("solve seconds = %g, want ~0.005", got)
	}
	if snap.Tenant != "acme" || snap.Cached == nil || *snap.Cached || !snap.ForwardHop {
		t.Errorf("metadata not carried: %+v", snap)
	}

	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var wire map[string]any
	if err := json.Unmarshal(raw, &wire); err != nil {
		t.Fatal(err)
	}
	stages, ok := wire["stages"].(map[string]any)
	if !ok {
		t.Fatalf("no stages object in %s", raw)
	}
	if _, ok := stages["solve"]; !ok {
		t.Errorf("solve stage missing from %s", raw)
	}
	if _, ok := stages["debit"]; ok {
		t.Errorf("unfired debit stage should be omitted: %s", raw)
	}
}

// TestBeginStartsOver reuses one trace for a second request, as the serving
// layer's pool does: the second request starts with no span, tag or cached
// flag of the first, and the ring's copy of the first snapshot keeps them.
func TestBeginStartsOver(t *testing.T) {
	r := NewTraceRing(4)
	tr := NewTrace("first", "/v1/admit")
	tr.Observe(StageDebit, time.Millisecond)
	tr.SetTenant("acme")
	tr.SetCached(true)
	r.Add(tr.Finish(200, 2*time.Millisecond, "http://a", true))

	tr.Begin("second", "/healthz")
	second := tr.Finish(404, time.Millisecond, "", false)
	if second.ID != "second" || second.Route != "/healthz" || second.Tenant != "" || second.Cached != nil ||
		second.ServedBy != "" || second.ForwardHop || second.StageCounts != [NumStages]int64{} || second.StageNanos != [NumStages]int64{} {
		t.Errorf("second request inherited the first's state: %+v", second)
	}
	first := r.Find("first")
	if first == nil || first.Route != "/v1/admit" || first.Status != 200 || first.Tenant != "acme" ||
		first.Cached == nil || !*first.Cached || first.StageCounts[StageDebit] != 1 {
		t.Errorf("ring copy changed when its trace was reused: %+v", first)
	}
	if !hitFlag || missFlag {
		t.Fatal("the shared cached flags were written")
	}
}

// TestNilTraceIsInert: the nil receiver contract every call site relies on.
func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	tr.Observe(StageSolve, time.Second)
	tr.SetTenant("x")
	tr.SetCached(true)
	if snap := tr.Finish(200, time.Second, "", false); snap != nil {
		t.Errorf("nil trace Finish = %+v, want nil", snap)
	}
}

// TestConcurrentSpansStayIsolated drives many goroutines, each with its own
// trace, every one also hammered by inner workers recording into it. Under
// -race this is the data-race gate; the assertions check that no span
// data leaked across traces.
func TestConcurrentSpansStayIsolated(t *testing.T) {
	const traces, workers, perWorker = 32, 8, 50
	var wg sync.WaitGroup
	snaps := make([]*Snapshot, traces)
	for i := 0; i < traces; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr := NewTrace("", "/v1/plan/batch")
			var inner sync.WaitGroup
			for w := 0; w < workers; w++ {
				inner.Add(1)
				go func() {
					defer inner.Done()
					for k := 0; k < perWorker; k++ {
						tr.Observe(StageSolve, time.Microsecond)
					}
				}()
			}
			inner.Wait()
			snaps[i] = tr.Finish(200, time.Millisecond, "", false)
		}(i)
	}
	wg.Wait()
	ids := make(map[string]bool)
	for i, snap := range snaps {
		if got := snap.StageCounts[StageSolve]; got != workers*perWorker {
			t.Errorf("trace %d solve count = %d, want %d", i, got, workers*perWorker)
		}
		if ids[snap.ID] {
			t.Errorf("trace ID %q reused", snap.ID)
		}
		ids[snap.ID] = true
	}
}

func TestTraceRingEvictionAndSlowest(t *testing.T) {
	r := NewTraceRing(4)
	for i := 1; i <= 6; i++ {
		r.Add(&Snapshot{ID: string(rune('a' + i - 1)), Seconds: float64(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	slow := r.Slowest(0)
	if len(slow) != 4 || slow[0].Seconds != 6 || slow[3].Seconds != 3 {
		t.Fatalf("Slowest(0) = %+v, want 6..3 (oldest evicted)", slow)
	}
	if top := r.Slowest(2); len(top) != 2 || top[0].Seconds != 6 {
		t.Fatalf("Slowest(2) = %+v", top)
	}
	if got := r.Find("f"); got == nil || got.Seconds != 6 {
		t.Errorf("Find(f) = %+v", got)
	}
	if got := r.Find("a"); got != nil {
		t.Errorf("Find(evicted) = %+v, want nil", got)
	}
	var nilRing *TraceRing
	nilRing.Add(&Snapshot{})
	if nilRing.Slowest(1) != nil || nilRing.Find("x") != nil || nilRing.Len() != 0 {
		t.Error("nil ring should be inert")
	}
}

func TestLoggerSamplingAndFields(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, slog.LevelInfo, 10)
	snap := &Snapshot{ID: "t1", Route: "/v1/plan", Status: 200, Seconds: 0.001}
	for i := 0; i < 40; i++ {
		l.Request(snap)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != 4 {
		t.Errorf("sampled 1-in-10: got %d lines over 40 requests, want 4", lines)
	}

	// 5xx bypasses sampling.
	buf.Reset()
	l.Request(&Snapshot{ID: "boom", Route: "/v1/plan", Status: 500})
	if !strings.Contains(buf.String(), `"boom"`) || !strings.Contains(buf.String(), `"ERROR"`) {
		t.Errorf("5xx line should always log at error level, got %q", buf.String())
	}

	// Field catalog on an unsampled logger.
	buf.Reset()
	full := NewLogger(&buf, slog.LevelInfo, 1)
	hit := true
	rich := &Snapshot{
		ID: "t2", Route: "/v1/plan", Status: 200, Seconds: 0.002,
		Tenant: "acme", Cached: &hit, ServedBy: "http://owner", ForwardHop: true,
	}
	rich.StageNanos[StageCache] = 1500
	rich.StageCounts[StageCache] = 1
	full.Request(rich)
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("request line is not JSON: %v (%q)", err, buf.String())
	}
	for _, key := range []string{"traceId", "route", "status", "seconds", "tenant", "cached", "servedBy", "forwardHop", "stages"} {
		if _, ok := line[key]; !ok {
			t.Errorf("request line missing %q: %s", key, buf.String())
		}
	}
	var nilLogger *Logger
	nilLogger.Request(rich) // must not panic
	if nilLogger.Op() != nil {
		t.Error("nil logger Op() should be nil")
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
		"WARN": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud) should fail")
	}
}

func TestDebugMux(t *testing.T) {
	ring := NewTraceRing(8)
	ring.Add(&Snapshot{ID: "slow", Route: "/v1/replay", Status: 200, Seconds: 2.5})
	mux := DebugMux(ring)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/traces status = %d", rec.Code)
	}
	var snaps []json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &snaps); err != nil || len(snaps) != 1 {
		t.Fatalf("/debug/traces body = %q (err %v)", rec.Body, err)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?n=bogus", nil))
	if rec.Code != 400 {
		t.Errorf("bad n: status = %d, want 400", rec.Code)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("pprof index: status %d, body %.80q", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code != 200 {
		t.Errorf("pprof cmdline status = %d", rec.Code)
	}
}
