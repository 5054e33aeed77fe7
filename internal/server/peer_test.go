package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chronos/internal/obs"
	"chronos/internal/ring"
)

const peerTestSelf = "http://self.invalid:1"

// peerUnderTest boots a Server whose ring holds one peer — an httptest
// listener running h — and returns that peer's state plus the headers of
// every request that reached it.
func peerUnderTest(t *testing.T, cfg Config, h http.HandlerFunc) (*Server, *peerState, func() []http.Header) {
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
	return s, s.ringSt.Load().peers[ts.URL], func() []http.Header {
		mu.Lock()
		defer mu.Unlock()
		return seen
	}
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
// the outcome, the breaker state, the per-peer error counter and the stamped
// headers.
func TestPeerCall(t *testing.T) {
	status := func(code int) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(code)
			_, _ = io.WriteString(w, "answer")
		}
	}
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
		// cancel: "" never, "before" the call, "during" the body read.
		cancel     string
		unreached  bool // the request never reaches the peer's handler
		want       peerOutcome
		wantStatus int
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
				s, p, seen := peerUnderTest(t, cfg, tc.handler(started))
				if halfOpen {
					p.breaker.gate.Store(gateExpired) // open, cooldown lapsed: this call is the probe
				}
				tr := obs.NewTrace("", "/test")
				ctx, cancel := context.WithCancel(obs.NewContext(context.Background(), tr))
				defer cancel()
				switch tc.cancel {
				case "before":
					cancel()
				case "during":
					go func() {
						<-started
						cancel()
					}()
				}

				status, _, answer, outcome := p.call(ctx, http.MethodPost, "/x", []byte(`{}`))

				if outcome != tc.want {
					t.Fatalf("outcome = %d, want %d", outcome, tc.want)
				}
				if outcome == peerAnswered && (status != tc.wantStatus || string(answer) != "answer") {
					t.Errorf("answered %d %q, want %d \"answer\"", status, answer, tc.wantStatus)
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
					if h.Get(obs.TraceHeader) != tr.ID || h.Get(ForwardedFromHeader) != peerTestSelf {
						t.Errorf("request carried trace %q from %q, want %q from %q",
							h.Get(obs.TraceHeader), h.Get(ForwardedFromHeader), tr.ID, peerTestSelf)
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
	_, p, seen := peerUnderTest(t, Config{BreakerCooldown: time.Hour}, func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		<-release
	})
	p.breaker.gate.Store(gateExpired)
	outcomes := make(chan peerOutcome, 16)
	for i := 0; i < 16; i++ {
		go func() {
			_, _, _, outcome := p.call(context.Background(), http.MethodGet, "/x", nil)
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
