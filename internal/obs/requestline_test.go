package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"chronos/internal/race"
)

// bothLines logs snap through a Logger on obs's own handler (the hand
// renderer) and through one on a plain slog.NewJSONHandler (the attr path),
// sharing level and sampling, and returns what each wrote.
func bothLines(level slog.Level, snap *Snapshot) (hand, ref []byte) {
	var hb, rb bytes.Buffer
	NewLogger(&hb, level, 1).Request(snap)
	FromSlog(slog.New(slog.NewJSONHandler(&rb, &slog.HandlerOptions{Level: level})), 1).Request(snap)
	return hb.Bytes(), rb.Bytes()
}

// afterTime splits one log line into its time value and everything after
// it, which is the part two renderings of one snapshot must share.
func afterTime(t *testing.T, line []byte) (stamp string, rest []byte) {
	t.Helper()
	const head = `{"time":"`
	end := bytes.Index(line, []byte(`","level":`))
	if !bytes.HasPrefix(line, []byte(head)) || end < 0 {
		t.Fatalf("line does not open with a time value: %q", line)
	}
	return string(line[len(head):end]), line[end:]
}

// checkRequestLine holds one hand-rendered line to the contract: exactly one
// newline-terminated JSON object whose time is RFC 3339 and whose remaining
// bytes are what slog's JSON handler prints for the same snapshot.
func checkRequestLine(t *testing.T, snap *Snapshot) {
	t.Helper()
	hand, ref := bothLines(slog.LevelInfo, snap)
	if n := bytes.Count(hand, []byte("\n")); n != 1 || hand[len(hand)-1] != '\n' {
		t.Fatalf("want one newline-terminated line, got %d newlines: %q", n, hand)
	}
	if !json.Valid(hand) {
		t.Fatalf("line is not valid JSON: %q", hand)
	}
	stamp, rest := afterTime(t, hand)
	if _, err := time.Parse(time.RFC3339Nano, stamp); err != nil {
		t.Fatalf("time %q: %v", stamp, err)
	}
	if _, want := afterTime(t, ref); !bytes.Equal(rest, want) {
		t.Fatalf("hand renderer and slog disagree\nhand: %s\nslog: %s", rest, want)
	}
}

// TestRequestLineMatchesSlog walks every combination of the line's optional
// fields: with each one present or absent, the hand renderer prints the
// bytes slog prints.
func TestRequestLineMatchesSlog(t *testing.T) {
	hit, miss := true, false
	stageSets := [][]Stage{nil}
	var all []Stage
	for s := Stage(0); s < NumStages; s++ {
		stageSets = append(stageSets, []Stage{s})
		all = append(all, s)
	}
	stageSets = append(stageSets, all)
	cases := 0
	for _, status := range []int{200, 404, 500} {
		for _, tenant := range []string{"", "acme"} {
			for _, cached := range []*bool{nil, &miss, &hit} {
				for _, servedBy := range []string{"", "http://127.0.0.1:8081"} {
					for _, hop := range []bool{false, true} {
						for _, stages := range stageSets {
							snap := &Snapshot{
								ID: "0123456789abcdef0123456789abcdef", Route: "/v1/plan",
								Status: status, Seconds: 4.2e-5,
								Tenant: tenant, Cached: cached, ServedBy: servedBy, ForwardHop: hop,
							}
							for _, s := range stages {
								snap.StageNanos[s] = 1500 * int64(s+1)
								snap.StageCounts[s] = 1
							}
							checkRequestLine(t, snap)
							cases++
						}
					}
				}
			}
		}
	}
	if want := 3 * 2 * 3 * 2 * 2 * (int(NumStages) + 2); cases != want {
		t.Fatalf("walked %d combinations, want %d", cases, want)
	}
}

// FuzzRequestLine is the renderer's differential and its log-injection
// guard: tenant and servedBy reach the line from request bodies and response
// headers, and whatever they hold the output stays one JSON line equal to
// slog's. Non-finite floats take the attr path and so agree trivially.
func FuzzRequestLine(f *testing.F) {
	long := strings.Repeat(`a"\<`, 16<<10)
	f.Add("t1", "/v1/plan", "acme", "http://127.0.0.1:1", 4.2e-5, int64(1500), 200, uint16(0x1fff))
	f.Add(`q"uo\te`, "/v1/<admit>&", "ten\nant\r\t\x00\x1f\x7f", "\b\f\u2028\u2029", 0.0, int64(0), 404, uint16(0x0401))
	f.Add("\xff\xfe bad utf8 \xc3", "é/π", `{"level":"ERROR"}`+"\n"+`{"msg":"forged"}`, "x", 1e-9, int64(1), 500, uint16(0x0802))
	f.Add(long, long, long, long, 8.94e-7, int64(894), 503, uint16(0x1004))
	f.Add("", "", "", "", 1e21, int64(math.MaxInt64), -1, uint16(0))
	f.Add("nan", "/v1/plan", "", "", math.NaN(), int64(-5), 200, uint16(0x03ff))
	f.Fuzz(func(t *testing.T, id, route, tenant, servedBy string, seconds float64, nanos int64, status int, flags uint16) {
		snap := &Snapshot{
			ID: id, Route: route, Status: status, Seconds: seconds,
			Tenant: tenant, ServedBy: servedBy, ForwardHop: flags&(1<<12) != 0,
		}
		if c := flags >> 10 & 3; c != 0 {
			hit := c > 1
			snap.Cached = &hit
		}
		for s := Stage(0); s < NumStages; s++ {
			if flags&(1<<s) != 0 {
				snap.StageNanos[s] = nanos
				snap.StageCounts[s] = 1
			}
		}
		checkRequestLine(t, snap)
	})
}

// TestRequestLineStampedAtEnd: the line's time is the snapshot's end, the
// instant the server measured, not a clock read at logging time.
func TestRequestLineStampedAtEnd(t *testing.T) {
	start := time.Date(2024, 5, 6, 7, 8, 9, 123456789, time.UTC)
	var buf bytes.Buffer
	NewLogger(&buf, slog.LevelInfo, 1).Request(&Snapshot{
		ID: "t", Route: "/v1/plan", Status: 200, Start: start,
		End: start.Add(42 * time.Microsecond), Seconds: 42e-6,
	})
	if stamp, _ := afterTime(t, buf.Bytes()); stamp != "2024-05-06T07:08:09.123498789Z" {
		t.Errorf("line stamped %s, want the snapshot's end 2024-05-06T07:08:09.123498789Z", stamp)
	}
}

// TestRequestLine5xxAtWarnLevel: a 5xx line is an ERROR line, so -log-level
// warn and error keep it while dropping the INFO lines of healthy requests.
func TestRequestLine5xxAtWarnLevel(t *testing.T) {
	for _, level := range []slog.Level{slog.LevelWarn, slog.LevelError} {
		for _, status := range []int{200, 404, 500, 503} {
			hand, ref := bothLines(level, &Snapshot{ID: "t", Route: "/v1/plan", Status: status})
			for name, line := range map[string][]byte{"own handler": hand, "foreign handler": ref} {
				switch {
				case status < 500 && len(line) != 0:
					t.Errorf("%s at %v: status %d logged %q, want nothing", name, level, status, line)
				case status >= 500 && !bytes.Contains(line, []byte(`"level":"ERROR"`)):
					t.Errorf("%s at %v: status %d logged %q, want one ERROR line", name, level, status, line)
				}
			}
		}
	}
}

// TestOpLinesAreSlogs: operational logs through obs's handler are the bytes
// slog.NewJSONHandler writes, including from a With-derived logger, whose
// request lines keep the derived attrs by taking the attr path.
func TestOpLinesAreSlogs(t *testing.T) {
	var ob, sb bytes.Buffer
	own := slog.New(NewHandler(&ob, slog.LevelInfo))
	ref := slog.New(slog.NewJSONHandler(&sb, &slog.HandlerOptions{Level: slog.LevelInfo}))
	for _, l := range []*slog.Logger{own, ref} {
		l.Debug("dropped")
		l.Warn("ring member suspected, evicting", "peer", "http://127.0.0.1:1", "misses", 3, "after", 1.5)
		l.With("replica", "a").WithGroup("g").Info("listening", "addr", "<&>")
	}
	ol := bytes.Split(bytes.TrimSpace(ob.Bytes()), []byte("\n"))
	sl := bytes.Split(bytes.TrimSpace(sb.Bytes()), []byte("\n"))
	if len(ol) != 2 || len(sl) != 2 {
		t.Fatalf("want 2 lines each, got %d and %d", len(ol), len(sl))
	}
	for i := range ol {
		_, got := afterTime(t, ol[i])
		if _, want := afterTime(t, sl[i]); !bytes.Equal(got, want) {
			t.Errorf("line %d:\n own: %s\nslog: %s", i, got, want)
		}
	}

	ob.Reset()
	FromSlog(own.With("replica", "a"), 1).Request(&Snapshot{ID: "t", Route: "/healthz", Status: 200})
	if !bytes.Contains(ob.Bytes(), []byte(`"msg":"request","replica":"a","traceId":"t"`)) {
		t.Errorf("derived logger's request line lost its attrs: %s", ob.Bytes())
	}
}

// TestLogStreamNoTornLines hammers request lines and operational lines into
// one bytes.Buffer, which is only safe, and only yields whole lines, if both
// kinds take the handler's writer lock.
func TestLogStreamNoTornLines(t *testing.T) {
	const writers, perWriter, opLines = 8, 400, 400
	var buf bytes.Buffer
	l := NewLogger(&buf, slog.LevelInfo, 1)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			hit := g%2 == 0
			snap := &Snapshot{ID: fmt.Sprintf("w%d", g), Route: "/v1/plan", Status: 200, Seconds: 1e-5, Cached: &hit}
			snap.StageNanos[StageCache], snap.StageCounts[StageCache] = 1500, 1
			for i := 0; i < perWriter; i++ {
				l.Request(snap)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < opLines; i++ {
			l.Op().Warn("ring member suspected, evicting", "peer", "http://127.0.0.1:1", "probe", i)
		}
	}()
	wg.Wait()

	lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
	if want := writers*perWriter + opLines; len(lines) != want {
		t.Fatalf("got %d lines, want %d", len(lines), want)
	}
	requests := 0
	for _, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal(line, &obj); err != nil {
			t.Fatalf("torn line %q: %v", line, err)
		}
		if obj["msg"] == "request" {
			requests++
		}
	}
	if requests != writers*perWriter {
		t.Errorf("%d request lines, want %d", requests, writers*perWriter)
	}
}

// fourStageSnapshot is a cached, tenant-routed, forwarded plan: the shape
// the allocation pin and the benchmark render.
func fourStageSnapshot() *Snapshot {
	hit := true
	snap := &Snapshot{
		ID: "0123456789abcdef0123456789abcdef", Route: "/v1/plan", Status: 200, Seconds: 4.2e-5,
		Tenant: "acme", Cached: &hit, ServedBy: "http://127.0.0.1:8081",
	}
	for i, s := range []Stage{StageQuantize, StageCache, StageDebit, StageForward} {
		snap.StageNanos[s], snap.StageCounts[s] = int64(400*(i+1)), 1
	}
	return snap
}

// TestRequestLineAllocs pins the hand-rendered line at no allocation at all.
func TestRequestLineAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates and defeats sync.Pool; alloc counts only hold without -race")
	}
	l := NewLogger(io.Discard, slog.LevelInfo, 1)
	snap := fourStageSnapshot()
	l.Request(snap) // prime the line pool
	if allocs := testing.AllocsPerRun(1000, func() { l.Request(snap) }); allocs != 0 {
		t.Errorf("%g allocs per request line, want 0", allocs)
	}
}

// BenchmarkRequestLine times one line into io.Discard: "own" is chronosd's
// default (obs's handler, the hand renderer), "foreign" the attr path a
// logger on someone else's handler keeps.
func BenchmarkRequestLine(b *testing.B) {
	snap := fourStageSnapshot()
	for _, bc := range []struct {
		name string
		l    *Logger
	}{
		{"own", NewLogger(io.Discard, slog.LevelInfo, 1)},
		{"foreign", FromSlog(slog.New(slog.NewJSONHandler(io.Discard, nil)), 1)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.l.Request(snap)
			}
		})
	}
}
