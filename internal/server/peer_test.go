package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chronos/internal/obs"
	"chronos/internal/race"
	"chronos/internal/ring"
)

const peerTestSelf = "http://self.invalid:1"

// peerUnderTest boots a Server whose ring holds one peer — an httptest
// listener running h — and returns that peer's state and listener plus the
// headers of every request that reached it.
func peerUnderTest(t *testing.T, cfg Config, h http.HandlerFunc) (*Server, *peerState, *httptest.Server, func() []http.Header) {
	t.Helper()
	var mu sync.Mutex
	var seen []http.Header
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Header.Clone())
		mu.Unlock()
		h(w, r)
	}))
	t.Cleanup(ts.Close)
	s := New(cfg)
	if err := s.SetRing(ring.Membership{Self: peerTestSelf, Peers: []string{ts.URL}}); err != nil {
		t.Fatal(err)
	}
	return s, s.ringSt.Load().peers[ts.URL], ts, func() []http.Header {
		mu.Lock()
		defer mu.Unlock()
		return seen
	}
}

// idleConns is how many connections p's pool holds.
func idleConns(p *peerState) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

func vecValue(v *counterVec[string], k string) uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	if c := v.counters[k]; c != nil {
		return c.Value()
	}
	return 0
}

// TestPeerCall pins the one replica-to-replica call: for every way an
// exchange can end, from a closed circuit and from a claimed half-open probe,
// the outcome, the breaker state, the per-peer error and dial counters, what
// became of the connection, and the stamped headers.
func TestPeerCall(t *testing.T) {
	status := func(code int) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(code)
			_, _ = io.WriteString(w, "answer")
		}
	}
	// raw answers with exactly these bytes, then holds the connection open
	// until the caller closes it.
	raw := func(answer string) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) {
			conn, _, _ := w.(http.Hijacker).Hijack()
			defer conn.Close()
			_, _ = io.WriteString(conn, answer)
			_, _ = io.Copy(io.Discard, conn)
		}
	}
	// Every call of a row carries one trace ID, which the peer must see on
	// each request it got.
	const traceID = "peer-call-test"
	// answered makes one call that must succeed, leaving its connection in
	// the pool.
	answered := func(t *testing.T, ctx context.Context, p *peerState) {
		if _, outcome := p.call(ctx, traceID, http.MethodPost, "/x", []byte(`{}`)); outcome != peerAnswered {
			t.Fatalf("priming call: outcome = %d, want answered", outcome)
		}
	}
	big := strings.Repeat("x", 3000)
	// stall sends the status line and half a body, then holds the connection
	// until the caller gives up; started (when set) tells the test the call
	// is now mid-body-read.
	stall := func(started chan struct{}) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			w.Header().Set("Content-Length", "1000")
			_, _ = io.WriteString(w, "half")
			w.(http.Flusher).Flush()
			if started != nil {
				close(started)
			}
			<-r.Context().Done()
		}
	}
	cases := []struct {
		name    string
		handler func(started chan struct{}) http.HandlerFunc
		// cancel: "" never, "before" the call, "during" it (once the handler
		// closes started).
		cancel     string
		unreached  bool // the request never reaches the peer's handler
		want       peerOutcome
		wantStatus int
		// before runs on the same peerState ahead of the measured call (and
		// ahead of the half-open gate): it leaves a pooled connection, or an
		// aborted exchange, behind.
		before    func(t *testing.T, ctx context.Context, p *peerState, ts *httptest.Server, started chan struct{})
		wantBody  string // "" means "answer"
		wantDials uint64 // successful dials over the row; 0 means 1 (none when unreached)
		closes    bool   // the peer answers in full but the connection must not be pooled
		fast      bool   // the call must return well inside the forward timeout
	}{
		{name: "200", handler: func(chan struct{}) http.HandlerFunc { return status(200) }, want: peerAnswered, wantStatus: 200},
		{name: "404", handler: func(chan struct{}) http.HandlerFunc { return status(404) }, want: peerAnswered, wantStatus: 404},
		{name: "409", handler: func(chan struct{}) http.HandlerFunc { return status(409) }, want: peerAnswered, wantStatus: 409},
		{name: "5xx", handler: func(chan struct{}) http.HandlerFunc { return status(503) }, want: peerFailed},
		{name: "transport error", handler: func(chan struct{}) http.HandlerFunc {
			return func(w http.ResponseWriter, _ *http.Request) {
				conn, _, _ := w.(http.Hijacker).Hijack()
				conn.Close()
			}
		}, want: peerFailed},
		{name: "body over the cap", handler: func(chan struct{}) http.HandlerFunc {
			return func(w http.ResponseWriter, _ *http.Request) {
				_, _ = w.Write(make([]byte, maxPeerBodyBytes+1))
			}
		}, want: peerFailed},
		{name: "slow body past the deadline", handler: func(chan struct{}) http.HandlerFunc { return stall(nil) }, want: peerFailed},
		{name: "caller cancel before", handler: func(chan struct{}) http.HandlerFunc { return status(200) },
			cancel: "before", unreached: true, want: peerAborted},
		{name: "caller cancel during the body read", handler: stall, cancel: "during", want: peerAborted},

		{name: "chunked answer", handler: func(chan struct{}) http.HandlerFunc {
			return func(w http.ResponseWriter, r *http.Request) { New(Config{}).writeJSON(w, r, http.StatusOK, big) }
		}, want: peerAnswered, wantStatus: 200, wantBody: `"` + big + "\"\n"},
		{name: "connection close", handler: func(chan struct{}) http.HandlerFunc {
			return func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Connection", "close")
				status(200)(w, r)
			}
		}, want: peerAnswered, wantStatus: 200, closes: true},
		{name: "stale pooled connection", handler: func(chan struct{}) http.HandlerFunc { return status(200) },
			before: func(t *testing.T, ctx context.Context, p *peerState, ts *httptest.Server, _ chan struct{}) {
				answered(t, ctx, p)
				ts.CloseClientConnections()
			}, want: peerAnswered, wantStatus: 200, wantDials: 2},
		{name: "stale pooled connection and the peer down", handler: func(chan struct{}) http.HandlerFunc { return status(200) },
			before: func(t *testing.T, ctx context.Context, p *peerState, ts *httptest.Server, _ chan struct{}) {
				answered(t, ctx, p)
				ts.Close()
			}, want: peerFailed},
		{name: "body shorter than its Content-Length", handler: func(chan struct{}) http.HandlerFunc {
			return func(w http.ResponseWriter, _ *http.Request) {
				conn, _, _ := w.(http.Hijacker).Hijack()
				_, _ = io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort")
				conn.Close()
			}
		}, want: peerFailed},
		{name: "Content-Length over the cap refused before the body", handler: func(chan struct{}) http.HandlerFunc {
			return raw(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", maxPeerBodyBytes+1))
		}, want: peerFailed, fast: true},
		{name: "interim 1xx", handler: func(chan struct{}) http.HandlerFunc {
			return raw("HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 6\r\n\r\nanswer")
		}, want: peerFailed, fast: true},
		{name: "neither length nor chunked nor close", handler: func(chan struct{}) http.HandlerFunc {
			return raw("HTTP/1.1 200 OK\r\n\r\nanswer")
		}, want: peerFailed, fast: true},
		{name: "caller cancel during the head read", handler: func(started chan struct{}) http.HandlerFunc {
			return func(w http.ResponseWriter, r *http.Request) {
				_, _ = io.Copy(io.Discard, r.Body)
				close(started)
				<-r.Context().Done()
			}
		}, cancel: "during", want: peerAborted},
		{name: "no desync after an abort", handler: func(started chan struct{}) http.HandlerFunc {
			var calls atomic.Int32
			return func(w http.ResponseWriter, r *http.Request) {
				if calls.Add(1) == 1 {
					stall(started)(w, r)
					return
				}
				status(200)(w, r)
			}
		}, before: func(t *testing.T, ctx context.Context, p *peerState, _ *httptest.Server, started chan struct{}) {
			ctx, cancel := context.WithCancel(ctx)
			defer cancel()
			go func() {
				<-started
				cancel()
			}()
			if _, outcome := p.call(ctx, traceID, http.MethodPost, "/x", []byte(`{}`)); outcome != peerAborted {
				t.Fatalf("first call: outcome = %d, want aborted mid-body", outcome)
			}
		}, want: peerAnswered, wantStatus: 200, wantDials: 2},
	}
	for _, tc := range cases {
		for _, halfOpen := range []bool{false, true} {
			name := tc.name + "/closed"
			if halfOpen {
				name = tc.name + "/half-open"
			}
			t.Run(name, func(t *testing.T) {
				started := make(chan struct{})
				cfg := Config{BreakerThreshold: 2, BreakerCooldown: time.Hour, ForwardTimeout: 10 * time.Second}
				if tc.name == "slow body past the deadline" {
					cfg.ForwardTimeout = 50 * time.Millisecond
				}
				s, p, ts, seen := peerUnderTest(t, cfg, tc.handler(started))
				defer s.Close()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if tc.before != nil {
					tc.before(t, ctx, p, ts, started)
				}
				if halfOpen {
					p.breaker.gate.Store(gateExpired) // open, cooldown lapsed: this call is the probe
				}
				switch tc.cancel {
				case "before":
					cancel()
				case "during":
					go func() {
						<-started
						cancel()
					}()
				}

				begin := time.Now()
				ans, outcome := p.call(ctx, traceID, http.MethodPost, "/x", []byte(`{}`))

				if outcome != tc.want {
					t.Fatalf("outcome = %d, want %d", outcome, tc.want)
				}
				wantBody := "answer"
				if tc.wantBody != "" {
					wantBody = tc.wantBody
				}
				if outcome == peerAnswered && (ans.status != tc.wantStatus || string(ans.body) != wantBody) {
					t.Errorf("answered %d %q, want %d %q", ans.status, ans.body, tc.wantStatus, wantBody)
				}
				if elapsed := time.Since(begin); tc.fast && elapsed > cfg.ForwardTimeout/2 {
					t.Errorf("call took %v: the answer was not refused on its head", elapsed)
				}
				// The connection is pooled only behind a complete answer (a 5xx
				// is one) that the peer did not close.
				wantIdle := 0
				if (outcome == peerAnswered || ans.status >= 500) && !tc.closes {
					wantIdle = 1
				}
				if got := idleConns(p); got != wantIdle {
					t.Errorf("%d connections pooled after the call, want %d", got, wantIdle)
				}
				wantDials := tc.wantDials
				if wantDials == 0 && !tc.unreached {
					wantDials = 1
				}
				if got := vecValue(&s.metrics.ringDials, p.base); got != wantDials {
					t.Errorf("chronosd_ring_peer_dials_total = %d, want %d", got, wantDials)
				}
				// The breaker is settled exactly once, by outcome.
				gate, fails := p.breaker.gate.Load(), p.breaker.failures.Load()
				wantErrs := uint64(0)
				switch {
				case outcome == peerAnswered:
					if gate != gateClosed || fails != 0 {
						t.Errorf("answered call left gate %d failures %d, want closed/0", gate, fails)
					}
				case outcome == peerAborted && halfOpen:
					if gate != gateExpired || fails != 0 {
						t.Errorf("aborted probe left gate %d failures %d, want the slot released unjudged", gate, fails)
					}
				case outcome == peerAborted:
					if gate != gateClosed || fails != 0 {
						t.Errorf("aborted call left gate %d failures %d, want untouched", gate, fails)
					}
				case halfOpen: // failed probe re-opens for a fresh cooldown
					wantErrs = 1
					if gate <= time.Now().UnixNano() || fails != 0 {
						t.Errorf("failed probe left gate %d failures %d, want re-opened", gate, fails)
					}
				default: // one failure below the threshold of 2
					wantErrs = 1
					if gate != gateClosed || fails != 1 {
						t.Errorf("failed call left gate %d failures %d, want closed/1", gate, fails)
					}
				}
				if got := vecValue(&s.metrics.ringErrors, p.base); got != wantErrs {
					t.Errorf("chronosd_ring_peer_errors_total = %d, want %d", got, wantErrs)
				}
				hdrs := seen()
				if tc.unreached != (len(hdrs) == 0) {
					t.Fatalf("peer saw %d requests, unreached = %v", len(hdrs), tc.unreached)
				}
				for _, h := range hdrs {
					if h.Get(obs.TraceHeader) != traceID || h.Get(ForwardedFromHeader) != peerTestSelf {
						t.Errorf("request carried trace %q from %q, want %q from %q",
							h.Get(obs.TraceHeader), h.Get(ForwardedFromHeader), traceID, peerTestSelf)
					}
				}
			})
		}
	}
}

// TestPeerCallHalfOpenRace: 16 concurrent calls against a circuit whose
// cooldown just lapsed send exactly one request; the other 15 are skipped
// while the probe is in flight, and its answer closes the circuit. Untraced
// callers get a minted trace ID.
func TestPeerCallHalfOpenRace(t *testing.T) {
	var hits atomic.Int32
	release := make(chan struct{})
	_, p, _, seen := peerUnderTest(t, Config{BreakerCooldown: time.Hour}, func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		<-release
	})
	p.breaker.gate.Store(gateExpired)
	outcomes := make(chan peerOutcome, 16)
	for i := 0; i < 16; i++ {
		go func() {
			_, outcome := p.call(context.Background(), "", http.MethodGet, "/x", nil)
			outcomes <- outcome
		}()
	}
	for i := 0; i < 15; i++ {
		if outcome := <-outcomes; outcome != peerSkipped {
			t.Fatalf("call %d finished with outcome %d while the probe was in flight, want skipped", i, outcome)
		}
	}
	close(release)
	if outcome := <-outcomes; outcome != peerAnswered {
		t.Fatalf("probe outcome = %d, want answered", outcome)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("peer saw %d requests, want exactly the 1 probe", got)
	}
	if !p.breaker.allow() {
		t.Fatal("answered probe must close the circuit")
	}
	if id := seen()[0].Get(obs.TraceHeader); id == "" {
		t.Error("untraced call carried no minted trace ID")
	}
}

// TestPeerCallConcurrent: 16 goroutines share one peer's pool. Every answer
// carries its own caller's trace ID (no cross-talk between pooled
// connections), the peer never sees more connections than callers, and after
// Server.Close every one of them is closed.
func TestPeerCallConcurrent(t *testing.T) {
	var mu sync.Mutex
	opened, closed := 0, 0
	changed := make(chan struct{}, 1)
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, r.Header.Get(obs.TraceHeader))
	}))
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		mu.Lock()
		switch state {
		case http.StateNew:
			opened++
		case http.StateClosed:
			closed++
		}
		mu.Unlock()
		select {
		case changed <- struct{}{}:
		default:
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	s := New(Config{})
	if err := s.SetRing(ring.Membership{Self: peerTestSelf, Peers: []string{ts.URL}}); err != nil {
		t.Fatal(err)
	}
	p := s.ringSt.Load().peers[ts.URL]

	const callers, calls = 16, 200
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				traceID := obs.MintID()
				ans, outcome := p.call(context.Background(), traceID, http.MethodPost, "/x", []byte(`{}`))
				if outcome != peerAnswered || ans.status != http.StatusOK || string(ans.body) != traceID {
					t.Errorf("call %d: outcome %d status %d answer %q, want its own trace ID %q", i, outcome, ans.status, ans.body, traceID)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := vecValue(&s.metrics.ringDials, p.base); got == 0 || got > callers {
		t.Errorf("chronosd_ring_peer_dials_total = %d for %d calls, want 1..%d", got, callers*calls, callers)
	}
	s.Close()
	if got := idleConns(p); got != 0 {
		t.Errorf("%d connections pooled after Close, want 0", got)
	}
	timeout := time.After(10 * time.Second)
	for {
		mu.Lock()
		o, c := opened, closed
		mu.Unlock()
		if o > callers {
			t.Fatalf("peer saw %d connections from %d callers", o, callers)
		}
		if c == o {
			return
		}
		select {
		case <-changed:
		case <-timeout:
			t.Fatalf("%d of %d connections closed after Server.Close", c, o)
		}
	}
}

// TestPeerCallLargeBody: a request body too large to copy beside the head
// leaves as one vectored write and arrives intact, and so does a large
// answer; the connection is reused afterwards.
func TestPeerCallLargeBody(t *testing.T) {
	s, p, _, _ := peerUnderTest(t, Config{}, func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body) // net/http drops what is unread at the first write
		_, _ = w.Write(body)
	})
	defer s.Close()
	for _, size := range []int{peerInlineBodyBytes, peerInlineBodyBytes + 1, 1 << 20} {
		body := bytes.Repeat([]byte("0123456789abcdef"), size/16+1)[:size]
		ans, outcome := p.call(context.Background(), "", http.MethodPost, "/x", body)
		if outcome != peerAnswered || !bytes.Equal(ans.body, body) {
			t.Fatalf("%d-byte body: outcome %d, %d bytes echoed", size, outcome, len(ans.body))
		}
	}
	if got := vecValue(&s.metrics.ringDials, p.base); got != 1 {
		t.Fatalf("three calls dialed %d times, want 1", got)
	}
}

// TestPeerLateReturnDoesNotPool: an exchange still in flight when its peer
// leaves the view (or the server closes) closes its connection on return
// instead of pooling it where nothing would ever close it.
func TestPeerLateReturnDoesNotPool(t *testing.T) {
	inHandler, release := make(chan struct{}), make(chan struct{})
	s, p, _, _ := peerUnderTest(t, Config{}, func(w http.ResponseWriter, _ *http.Request) {
		close(inHandler)
		<-release
		_, _ = io.WriteString(w, "answer")
	})
	done := make(chan peerOutcome)
	go func() {
		_, outcome := p.call(context.Background(), "", http.MethodGet, "/x", nil)
		done <- outcome
	}()
	<-inHandler
	if err := s.SetRing(ring.Membership{}); err != nil {
		t.Fatal(err)
	}
	close(release)
	if outcome := <-done; outcome != peerAnswered {
		t.Fatalf("outcome = %d, want answered", outcome)
	}
	if got := idleConns(p); got != 0 {
		t.Fatalf("%d connections pooled by a peer that left the view, want 0", got)
	}
}

// TestPeerIdleConnectionExpires: a pooled connection older than half the
// server side's idle timeout is closed, not reused, so the peer's idle reaper
// never races a request.
func TestPeerIdleConnectionExpires(t *testing.T) {
	s, p, _, _ := peerUnderTest(t, Config{}, func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "answer")
	})
	defer s.Close()
	call := func() {
		t.Helper()
		if _, outcome := p.call(context.Background(), "", http.MethodGet, "/x", nil); outcome != peerAnswered {
			t.Fatalf("outcome = %d, want answered", outcome)
		}
	}
	call()
	call()
	if got := vecValue(&s.metrics.ringDials, p.base); got != 1 {
		t.Fatalf("two calls dialed %d times, want 1", got)
	}
	p.mu.Lock()
	p.idle[0].idleSince = time.Now().Add(-peerConnIdleExpiry)
	p.mu.Unlock()
	call()
	if got := vecValue(&s.metrics.ringDials, p.base); got != 2 {
		t.Fatalf("a call over an expired connection left dials at %d, want 2", got)
	}
	if got := idleConns(p); got != 1 {
		t.Fatalf("%d connections pooled, want only the fresh one", got)
	}
}

// cannedPeer is a raw TCP listener that answers every request — anything up
// to a blank line — with the same bytes, allocating nothing per request.
func cannedPeer(t testing.TB, answer string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				buf, n, out := make([]byte, 4096), 0, []byte(answer)
				for {
					m, err := conn.Read(buf[n:])
					if err != nil {
						return
					}
					if n += m; bytes.HasSuffix(buf[:n], []byte("\r\n\r\n")) {
						n = 0
						if _, err := conn.Write(out); err != nil {
							return
						}
					}
				}
			}()
		}
	}()
	return "http://" + ln.Addr().String()
}

// planAnswer is a /v1/plan answer as a chronosd peer sends it.
const planAnswer = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n" +
	"X-Chronosd-Served-By: http://127.0.0.1:18123\r\nX-Chronosd-Trace-Id: 8400cabb758b54f66d2074ddfd342455\r\n" +
	"Date: Sun, 04 Oct 2026 02:22:00 GMT\r\nContent-Length: 178\r\n\r\n" + planAnswerBody

const planAnswerBody = `{"plan":{"strategy":"Speculative-Resume","r":1,"pocd":0.9994917842797606,"machineTime":228.13940317059306,"cost":228.13940317059306,"utility":-0.0230347117044736},"cached":false}`

// TestPeerExchangeAllocs pins what one exchange on a pooled connection
// allocates, under a cancellable traced context as a forward has: the answer
// body, the cancel hook, and little else (net/http's client: 70).
func TestPeerExchangeAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc counts only hold without -race")
	}
	peerURL := cannedPeer(t, strings.Replace(planAnswer, "http://127.0.0.1:18123", "PEER", 1))
	s := New(Config{})
	defer s.Close()
	if err := s.SetRing(ring.Membership{Self: peerTestSelf, Peers: []string{peerURL}}); err != nil {
		t.Fatal(err)
	}
	p := s.ringSt.Load().peers[peerURL]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	traceID := obs.MintID()
	exchange := func() {
		ans, err := p.exchange(ctx, traceID, http.MethodGet, "/x", nil)
		if err != nil || ans.status != http.StatusOK || string(ans.body) != planAnswerBody || ans.contentType != "application/json" {
			t.Fatalf("exchange = %+v, %v", ans, err)
		}
	}
	exchange()
	allocs := testing.AllocsPerRun(200, exchange)
	t.Logf("allocations per exchange: %.0f", allocs)
	if allocs > 12 {
		t.Errorf("one exchange allocates %.0f objects, want at most 12", allocs)
	}
	if got := vecValue(&s.metrics.ringDials, p.base); got != 1 {
		t.Errorf("202 exchanges dialed %d times, want 1", got)
	}
}

// chunks frames parts as an HTTP/1.1 chunked body with an empty trailer.
func chunks(parts ...string) string {
	var b strings.Builder
	for _, part := range parts {
		fmt.Fprintf(&b, "%x\r\n%s\r\n", len(part), part)
	}
	return b.String() + "0\r\n\r\n"
}

const ownedAnswerHead = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n" +
	"X-Chronosd-Trace-Id: bd9a48d44dff916585846e7d7cf86814\r\nDate: Sun, 04 Oct 2026 02:22:00 GMT\r\n" +
	"Transfer-Encoding: chunked\r\n\r\n"

const ownedAnswerBody = `{"plans":[{"key":"|10|100|10|1.5|30|60|0|0.0001|1|0","plan":{"strategy":"Speculative-Resume","r":1,"pocd":0.9994917842797606,"machineTime":228.13940317059306,"cost":228.13940317059306,"utility":-0.0230347117044736}}]}` + "\n"

// TestReadPeerAnswer holds the answer parser to what it accepts, what it
// refuses, and when it lets the connection be reused.
func TestReadPeerAnswer(t *testing.T) {
	const ok = "HTTP/1.1 200 OK\r\n"
	cases := []struct {
		name, in              string
		status                int
		body                  string
		reusable              bool
		contentType, servedBy string
		wantErr               string // substring; "" means the answer parses
	}{
		{name: "plan answer", in: planAnswer, status: 200, body: planAnswerBody, reusable: true,
			contentType: "application/json", servedBy: "http://127.0.0.1:18123"},
		{name: "chunked", in: ownedAnswerHead + chunks(ownedAnswerBody[:100], ownedAnswerBody[100:]), status: 200,
			body: ownedAnswerBody, reusable: true, contentType: "application/json"},
		{name: "chunked with a trailer", in: ok + "transfer-encoding: CHUNKED\r\n\r\n6\r\nanswer\r\n0\r\nX-Sum: 1\r\n\r\n",
			status: 200, body: "answer", reusable: true},
		{name: "no reason phrase, bare LF", in: "HTTP/1.1 404\nContent-Length: 2\n\nno", status: 404, body: "no", reusable: true},
		{name: "empty body", in: "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n", status: 503, reusable: true},
		{name: "close-delimited", in: ok + "Connection: close\r\n\r\nanswer", status: 200, body: "answer"},
		{name: "close with a length", in: ok + "Connection: close\r\nContent-Length: 6\r\n\r\nanswer", status: 200, body: "answer"},
		{name: "bytes after the answer", in: ok + "Content-Length: 6\r\n\r\nanswerHTTP/1.1 200", status: 200, body: "answer"},
		{name: "agreeing lengths", in: ok + "Content-Length: 2\r\nContent-Length: 2\r\n\r\nok", status: 200, body: "ok", reusable: true},
		{name: "body past the reader's buffer", in: ok + "Content-Length: 10000\r\n\r\n" + strings.Repeat("x", 10000),
			status: 200, body: strings.Repeat("x", 10000), reusable: true},

		{name: "empty", in: "", wantErr: "EOF"},
		{name: "bare newline", in: "\n", wantErr: "malformed status line"},
		{name: "HTTP/1.0", in: "HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n", wantErr: "malformed status line"},
		{name: "status not numeric", in: "HTTP/1.1 2x0 OK\r\n\r\n", wantErr: `unsupported status "2x0"`},
		{name: "status runs on", in: "HTTP/1.1 2000 OK\r\n\r\n", wantErr: "malformed status line"},
		{name: "1xx", in: "HTTP/1.1 100 Continue\r\n\r\n", wantErr: `unsupported status "100"`},
		{name: "6xx", in: "HTTP/1.1 600 Nope\r\nContent-Length: 0\r\n\r\n", wantErr: `unsupported status "600"`},
		{name: "status line over the buffer", in: "HTTP/1.1 200 " + strings.Repeat("a", 5<<10) + "\r\n\r\n", wantErr: "buffer full"},
		{name: "header line over the buffer", in: ok + "X-Pad: " + strings.Repeat("a", 5<<10) + "\r\nContent-Length: 0\r\n\r\n", wantErr: "buffer full"},
		{name: "too many header lines", in: ok + strings.Repeat("X-Pad: a\r\n", maxPeerHeaderLines+1) + "Content-Length: 0\r\n\r\n", wantErr: "malformed header section at line 65"},
		{name: "header without a colon", in: ok + "Content-Length 0\r\n\r\n", wantErr: "malformed header section at line 1"},
		{name: "folded header", in: ok + "X-A: b\r\n c: d\r\nContent-Length: 0\r\n\r\n", wantErr: "malformed header section at line 2"},
		{name: "head cut short", in: ok + "Content-Length: 0\r\n", wantErr: "EOF"},
		{name: "negative length", in: ok + "Content-Length: -1\r\n\r\n", wantErr: "malformed Content-Length"},
		{name: "signed length", in: ok + "Content-Length: +6\r\n\r\nanswer", wantErr: "malformed Content-Length"},
		{name: "length overflows", in: ok + "Content-Length: 99999999999999999999\r\n\r\n", wantErr: "malformed Content-Length"},
		{name: "disagreeing lengths", in: ok + "Content-Length: 2\r\nContent-Length: 6\r\n\r\nanswer", wantErr: "malformed Content-Length"},
		{name: "length over the cap", in: ok + "Content-Length: 99999999999\r\n\r\n", wantErr: errPeerBodyTooLarge.Error()},
		{name: "body cut short", in: ok + "Content-Length: 10\r\n\r\nshort", wantErr: "unexpected EOF"},
		{name: "large body cut short", in: ok + fmt.Sprintf("Content-Length: %d\r\n\r\nshort", maxPeerBodyBytes), wantErr: "unexpected EOF"},
		{name: "gzip encoding", in: ok + "Transfer-Encoding: gzip\r\n\r\n", wantErr: "unsupported Transfer-Encoding"},
		{name: "length and chunked", in: ok + "Content-Length: 6\r\nTransfer-Encoding: chunked\r\n\r\n6\r\nanswer\r\n0\r\n\r\n", wantErr: "both Content-Length and chunked"},
		{name: "chunked cut short", in: ok + "Transfer-Encoding: chunked\r\n\r\n6\r\nans", wantErr: "unexpected EOF"},
		{name: "chunked without its last line", in: ok + "Transfer-Encoding: chunked\r\n\r\n6\r\nanswer\r\n0\r\n", wantErr: "EOF"},
		{name: "endless trailer", in: ok + "Transfer-Encoding: chunked\r\n\r\n0\r\n" + strings.Repeat("X-T: a\r\n", maxPeerHeaderLines+1) + "\r\n", wantErr: "malformed header section at line 65"},
		{name: "unframed", in: ok + "\r\nanswer", wantErr: "neither Content-Length nor chunked"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ans, reusable, err := readPeerAnswer(bufio.NewReader(strings.NewReader(tc.in)), "http://127.0.0.1:18123")
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error = %v, want one containing %q", err, tc.wantErr)
				}
				if ans.status != 0 || ans.body != nil || reusable {
					t.Fatalf("a refused answer returned status %d, %d body bytes, reusable %v", ans.status, len(ans.body), reusable)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if ans.status != tc.status || string(ans.body) != tc.body || reusable != tc.reusable ||
				ans.contentType != tc.contentType || ans.servedBy != tc.servedBy {
				t.Fatalf("got %d %q %q reusable=%v and %d body bytes, want %d %q %q reusable=%v and %d", ans.status, ans.contentType,
					ans.servedBy, reusable, len(ans.body), tc.status, tc.contentType, tc.servedBy, tc.reusable, len(tc.body))
			}
		})
	}
}

// FuzzPeerAnswer feeds the answer parser what a broken or hostile peer might
// send. For any bytes: no panic; an error with nothing else, or a status in
// 200–599 with a body inside the cap; a connection is never called reusable
// with bytes of something else already read from it; and the same answer
// followed by garbage parses the same and is not reusable.
func FuzzPeerAnswer(f *testing.F) {
	const ok = "HTTP/1.1 200 OK\r\n"
	for _, seed := range []string{
		planAnswer,
		ownedAnswerHead + chunks(ownedAnswerBody[:100], ownedAnswerBody[100:]),
		ok + "Content-Length: 99999999999\r\n\r\n",
		ok + "Content-Length: -1\r\n\r\n",
		ok + "X-Pad: " + strings.Repeat("a", 5<<10) + "\r\nContent-Length: 0\r\n\r\n",
		ok + strings.Repeat("X-Pad: a\r\n", 10000) + "Content-Length: 0\r\n\r\n",
		"HTTP/1.1 100 Continue\r\n\r\n",
		"\n",
		ok + "Connection: close\r\n\r\nanswer",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const base = "http://127.0.0.1:18123"
		src := bytes.NewReader(data)
		br := bufio.NewReader(src)
		ans, reusable, err := readPeerAnswer(br, base)
		if err != nil {
			if ans.status != 0 || ans.body != nil || ans.contentType != "" || ans.servedBy != "" || reusable {
				t.Fatalf("error %v came with answer %+v, reusable %v", err, ans, reusable)
			}
			return
		}
		if ans.status < 200 || ans.status > 599 || len(ans.body) > maxPeerBodyBytes {
			t.Fatalf("accepted status %d with %d body bytes", ans.status, len(ans.body))
		}
		if reusable && br.Buffered() != 0 {
			t.Fatalf("reusable with %d bytes buffered behind the answer", br.Buffered())
		}
		// Inside one buffer fill everything unread is buffered, so the parser
		// must have seen whatever follows the answer.
		consumed := len(data) - src.Len() - br.Buffered()
		if !reusable || consumed+len("garbage") > 4096 {
			return
		}
		again := append(data[:consumed:consumed], "garbage"...)
		ans2, reusable2, err := readPeerAnswer(bufio.NewReader(bytes.NewReader(again)), base)
		if err != nil || ans2.status != ans.status || ans2.contentType != ans.contentType || ans2.servedBy != ans.servedBy || !bytes.Equal(ans2.body, ans.body) {
			t.Fatalf("the same answer followed by garbage parsed as %+v, %v", ans2, err)
		}
		if reusable2 {
			t.Fatal("an answer followed by garbage left the connection reusable")
		}
	})
}
