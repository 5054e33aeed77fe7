package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chronos/api"
	"chronos/internal/plankey"
	"chronos/internal/ring"
)

// newRingFleet boots n in-process replicas and joins them into one
// rendezvous-hash ring. Each replica gets its own Server (cache, metrics,
// optional tenant registry via mkCfg) fronted by an httptest listener; ring
// membership is applied after the listeners exist because the URLs are not
// known before.
func newRingFleet(t *testing.T, n int, mkCfg func(i int) Config) ([]*Server, []*httptest.Server) {
	t.Helper()
	servers := make([]*Server, n)
	listeners := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		servers[i] = New(mkCfg(i))
		listeners[i] = httptest.NewServer(servers[i].Handler())
		t.Cleanup(listeners[i].Close)
		urls[i] = listeners[i].URL
	}
	for i := 0; i < n; i++ {
		if err := servers[i].SetRing(ring.Membership{Self: urls[i], Peers: urls}); err != nil {
			t.Fatalf("SetRing(replica %d): %v", i, err)
		}
	}
	return servers, listeners
}

// fleetOwner resolves which replica index owns the plan key of req on
// replica 0's ring view (all views agree by construction).
func fleetOwner(t *testing.T, servers []*Server, listeners []*httptest.Server, req api.PlanRequest) int {
	t.Helper()
	strat, best, ok := plankey.ParseStrategy(req.Strategy)
	if !ok {
		t.Fatalf("bad strategy %q", req.Strategy)
	}
	key := plankey.Key((&cell{strat: strat, best: best}).name(), req.Job, req.Econ)
	rs := servers[0].ringSt.Load()
	owner, ok := rs.ring.Owner(key)
	if !ok {
		t.Fatal("ring has no owner")
	}
	for i, ts := range listeners {
		if ts.URL == owner {
			return i
		}
	}
	t.Fatalf("owner %q is not a fleet member", owner)
	return -1
}

func getMetricsText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// postJSONErr is postJSON without the t.Fatal, safe to call from worker
// goroutines (which must not terminate the test directly).
func postJSONErr(url string, body any) (*http.Response, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return http.Post(url, "application/json", bytes.NewReader(raw))
}

// metricValue extracts the value of the first metrics line starting with
// prefix ("" when absent).
func metricValue(text, prefix string) string {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			fields := strings.Fields(line)
			return fields[len(fields)-1]
		}
	}
	return ""
}

// TestFleetCrossReplicaCacheHit is the acceptance scenario: a key planned
// through replica A is a cache hit when requested through replica B, because
// both forward to the single owning replica instead of each computing and
// caching independently.
func TestFleetCrossReplicaCacheHit(t *testing.T) {
	servers, listeners := newRingFleet(t, 3, func(int) Config { return Config{} })
	req := api.PlanRequest{Job: testJob(), Econ: testEcon()}
	owner := fleetOwner(t, servers, listeners, req)

	// Route the two requests through two replicas that are not required to
	// be the owner (with 3 replicas at least one of A, B is a forwarder).
	respA := postJSON(t, listeners[0].URL+"/v1/plan", req)
	if respA.StatusCode != http.StatusOK {
		t.Fatalf("plan via A: status = %d, want 200", respA.StatusCode)
	}
	if got := respA.Header.Get(ServedByHeader); got != listeners[owner].URL {
		t.Errorf("plan via A served by %q, want owner %q", got, listeners[owner].URL)
	}
	first := decodeBody[api.PlanResponse](t, respA)
	if first.Cached {
		t.Error("first fleet request should not be cached")
	}

	respB := postJSON(t, listeners[1].URL+"/v1/plan", req)
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("plan via B: status = %d, want 200", respB.StatusCode)
	}
	if got := respB.Header.Get(ServedByHeader); got != listeners[owner].URL {
		t.Errorf("plan via B served by %q, want owner %q", got, listeners[owner].URL)
	}
	second := decodeBody[api.PlanResponse](t, respB)
	if !second.Cached {
		t.Error("request via B should hit the owner's cache entry planned via A")
	}
	if second.Plan != first.Plan {
		t.Errorf("cross-replica plan %+v differs from original %+v", second.Plan, first.Plan)
	}

	// Exactly the owner holds the entry: the fleet caches partition the
	// keyspace instead of overlapping.
	for i, s := range servers {
		_, _, entries := s.CacheStats()
		want := 0
		if i == owner {
			want = 1
		}
		if entries != want {
			t.Errorf("replica %d caches %d entries, want %d", i, entries, want)
		}
	}
}

// TestFleetConcurrentMixedTraffic hammers every replica with a mix of
// owned and forwarded keys under -race: concurrent forwarded and local
// plans must not data-race, and every request must succeed.
func TestFleetConcurrentMixedTraffic(t *testing.T) {
	_, listeners := newRingFleet(t, 3, func(int) Config { return Config{} })
	const workers = 6
	const perWorker = 20
	var wg sync.WaitGroup
	errs := make(chan string, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				job := testJob()
				job.Deadline = 100 + float64((w*perWorker+i)%17) // spread keys over owners
				req := api.PlanRequest{Job: job, Econ: testEcon()}
				resp := postJSON(t, listeners[(w+i)%3].URL+"/v1/plan", req)
				if resp.StatusCode != http.StatusOK {
					errs <- resp.Status
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for status := range errs {
		t.Errorf("concurrent fleet plan failed: %s", status)
	}
}

// TestFleetOwnerDownLocalFallback kills the owning replica: requests routed
// through the survivors must still succeed via local computation, and the
// failure must be visible as chronosd_ring_peer_errors_total.
func TestFleetOwnerDownLocalFallback(t *testing.T) {
	servers, listeners := newRingFleet(t, 3, func(int) Config {
		return Config{BreakerThreshold: 100} // keep the circuit closed; every request attempts the forward
	})
	req := api.PlanRequest{Job: testJob(), Econ: testEcon()}
	owner := fleetOwner(t, servers, listeners, req)
	via := (owner + 1) % 3
	listeners[owner].Close()

	resp := postJSON(t, listeners[via].URL+"/v1/plan", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fallback plan: status = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get(ServedByHeader); got != listeners[via].URL {
		t.Errorf("fallback served by %q, want local replica %q", got, listeners[via].URL)
	}
	out := decodeBody[api.PlanResponse](t, resp)
	if out.Cached {
		t.Error("fallback plan cannot be a cache hit")
	}

	text := getMetricsText(t, listeners[via].URL)
	errLine := "chronosd_ring_peer_errors_total{peer=\"" + listeners[owner].URL + "\"}"
	if got := metricValue(text, errLine); got != "1" {
		t.Errorf("%s = %q, want 1", errLine, got)
	}
	if got := metricValue(text, "chronosd_ring_local_fallbacks_total"); got != "1" {
		t.Errorf("chronosd_ring_local_fallbacks_total = %q, want 1", got)
	}
}

// TestFleetBreakerSkipsDeadOwner verifies per-peer circuit breaking: after
// the threshold of consecutive failures the replica stops attempting
// forwards to the dead owner (no new peer errors) but keeps serving
// locally.
func TestFleetBreakerSkipsDeadOwner(t *testing.T) {
	servers, listeners := newRingFleet(t, 3, func(int) Config {
		return Config{BreakerThreshold: 1, BreakerCooldown: time.Hour}
	})
	req := api.PlanRequest{Job: testJob(), Econ: testEcon()}
	owner := fleetOwner(t, servers, listeners, req)
	via := (owner + 1) % 3
	listeners[owner].Close()

	for i := 0; i < 3; i++ {
		resp := postJSON(t, listeners[via].URL+"/v1/plan", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status = %d, want 200", i, resp.StatusCode)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	text := getMetricsText(t, listeners[via].URL)
	errLine := "chronosd_ring_peer_errors_total{peer=\"" + listeners[owner].URL + "\"}"
	if got := metricValue(text, errLine); got != "1" {
		t.Errorf("%s = %q, want 1 (breaker must stop attempts after the first failure)", errLine, got)
	}
	if got := metricValue(text, "chronosd_ring_local_fallbacks_total"); got != "3" {
		t.Errorf("chronosd_ring_local_fallbacks_total = %q, want 3", got)
	}
}

// TestForwardLoopGuard sends a request carrying the forwarded marker
// straight to a replica that does NOT own its key: the replica must answer
// locally instead of forwarding again.
func TestForwardLoopGuard(t *testing.T) {
	servers, listeners := newRingFleet(t, 3, func(int) Config { return Config{} })
	req := api.PlanRequest{Job: testJob(), Econ: testEcon()}
	owner := fleetOwner(t, servers, listeners, req)
	via := (owner + 1) % 3

	raw := `{"job":{"tasks":10,"deadline":100,"tmin":10,"beta":1.5,"tauEst":30,"tauKill":60},` +
		`"econ":{"theta":1e-4,"unitPrice":1}}`
	hreq, err := http.NewRequest(http.MethodPost, listeners[via].URL+"/v1/plan", strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(ForwardedFromHeader, "http://elsewhere:1")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get(ServedByHeader); got != listeners[via].URL {
		t.Errorf("guarded request served by %q, want local replica %q", got, listeners[via].URL)
	}
	out := decodeBody[api.PlanResponse](t, resp)
	if out.Cached {
		t.Error("guarded request computed locally cannot be a cache hit")
	}
	// The non-owner computed and cached locally; the owner never saw it.
	if _, _, entries := servers[owner].CacheStats(); entries != 0 {
		t.Errorf("owner cached %d entries for a request it never received", entries)
	}
	text := getMetricsText(t, listeners[via].URL)
	if got := metricValue(text, "chronosd_ring_received_forwards_total"); got != "1" {
		t.Errorf("chronosd_ring_received_forwards_total = %q, want 1", got)
	}
	if got := metricValue(text, "chronosd_ring_forwarded_total{"); got != "" {
		t.Errorf("guarded request must not be forwarded again, got forwarded counter %q", got)
	}
}

// TestFleetAdmitForwarded routes admission control through the ring: the
// decision (and the ledger debit) lands on the tenant's pool owner, whose
// cache then serves the repeated admit, whichever replica received it.
func TestFleetAdmitForwarded(t *testing.T) {
	servers, listeners := newRingFleet(t, 3, func(int) Config {
		return Config{Tenants: testRegistry(t, "etl", 1e9)}
	})
	owner := tenantOwner(t, servers, "etl")
	areq := api.AdmitRequest{Tenant: "etl", Job: testJob()}

	via := (owner + 1) % 3
	resp := postJSON(t, listeners[via].URL+"/v1/admit", areq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admit: status = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get(ServedByHeader); got != listeners[owner].URL {
		t.Errorf("admit served by %q, want the pool owner %q", got, listeners[owner].URL)
	}
	if dec := decodeBody[api.AdmitResponse](t, resp); !dec.Admitted {
		t.Fatalf("admit rejected: %+v", dec)
	}

	// The owner — and only it — debited its ledger and cached the
	// unconstrained optimum.
	for i, s := range servers {
		if debited := s.Tenants().Get("etl").Remaining() < 1e9; debited != (i == owner) {
			t.Errorf("replica %d (owner %d) debited: %v", i, owner, debited)
		}
	}

	// A second admit through the third replica reuses the owner's cached
	// plan: its cache stats show a hit.
	resp2 := postJSON(t, listeners[(owner+2)%3].URL+"/v1/admit", areq)
	if dec2 := decodeBody[api.AdmitResponse](t, resp2); !dec2.Admitted {
		t.Fatalf("second admit rejected: %+v", dec2)
	}
	if hits, _, _ := servers[owner].CacheStats(); hits == 0 {
		t.Error("repeated admit did not hit the owner's plan cache")
	}
}

// TestFleetTenantDriftRelaysOwner404 models a rolling tenant-config
// rollout: the pool owner does not know the tenant yet, so its 404 is the
// answer, relayed by the replica that received the admit. No replica debits
// a pool it does not own: not the receiver, which knows the tenant, and not
// the owner, which does not. (The receiver used to serve — and debit —
// locally.)
func TestFleetTenantDriftRelaysOwner404(t *testing.T) {
	servers, listeners := newRingFleet(t, 3, func(i int) Config {
		return Config{Tenants: testRegistry(t, "etl", 1e9)}
	})
	owner := tenantOwner(t, servers, "etl")
	via := (owner + 1) % 3
	// The owner's registry loses the tenant (drifted config).
	servers[owner].SetTenants(testRegistry(t, "other", 1))

	for _, path := range []string{"/v1/admit", "/v1/admit/batch"} {
		var body any = api.AdmitRequest{Tenant: "etl", Job: testJob(), Econ: testEcon()}
		if path == "/v1/admit/batch" {
			body = api.AdmitBatchRequest{Tenant: "etl", Jobs: []api.AdmitBatchJob{{Job: testJob()}}}
		}
		resp := postJSON(t, listeners[via].URL+path, body)
		if got := resp.Header.Get(ServedByHeader); got != listeners[owner].URL {
			t.Errorf("%s: served by %q, want the owner %q", path, got, listeners[owner].URL)
		}
		env := decodeBody[api.ErrorResponse](t, resp)
		if resp.StatusCode != http.StatusNotFound || env.Code != api.CodeNotFound || !strings.Contains(env.Error, `"etl"`) {
			t.Errorf("%s: %d %q %q, want the owner's 404 naming the tenant", path, resp.StatusCode, env.Code, env.Error)
		}
	}
	for i, s := range servers {
		if p := s.Tenants().Get("etl"); p != nil && p.Remaining() != 1e9 {
			t.Errorf("replica %d debited a pool it does not own: %g left", i, p.Remaining())
		}
	}
	text := getMetricsText(t, listeners[via].URL)
	if got := metricValue(text, "chronosd_ring_local_fallbacks_total"); got != "0" {
		t.Errorf("chronosd_ring_local_fallbacks_total = %q, want 0", got)
	}
	// The owner is healthy — its 404 must not charge its breaker.
	errLine := "chronosd_ring_peer_errors_total{peer=\"" + listeners[owner].URL + "\"}"
	if got := metricValue(text, errLine); got != "" {
		t.Errorf("%s = %q, want absent", errLine, got)
	}
}

// TestSetRingLifecycle covers reload semantics: enabling, swapping, and
// disabling membership on a live server.
func TestSetRingLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if self, members := s.RingMembers(); self != "" || members != nil {
		t.Fatalf("fresh server has ring state %q %v", self, members)
	}

	if err := s.SetRing(ring.Membership{Peers: []string{"http://b:1"}}); err == nil {
		t.Fatal("SetRing accepted peers without self")
	}

	if err := s.SetRing(ring.Membership{Self: ts.URL, Peers: []string{"http://b:1"}}); err != nil {
		t.Fatal(err)
	}
	self, members := s.RingMembers()
	if self != ts.URL || len(members) != 2 {
		t.Fatalf("RingMembers = %q %v", self, members)
	}

	// Requests keep working against a one-sided membership (the other
	// member may own keys; it is unreachable, so they fall back locally).
	resp := postJSON(t, ts.URL+"/v1/plan", api.PlanRequest{Job: testJob(), Econ: testEcon()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan with unreachable peer: status = %d", resp.StatusCode)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	if err := s.SetRing(ring.Membership{}); err != nil {
		t.Fatal(err)
	}
	if self, members := s.RingMembers(); self != "" || members != nil {
		t.Fatalf("disabled ring still reports %q %v", self, members)
	}
	resp = postJSON(t, ts.URL+"/v1/plan", api.PlanRequest{Job: testJob(), Econ: testEcon()})
	if got := resp.Header.Get(ServedByHeader); got != "" {
		t.Errorf("ringless response carries %s=%q", ServedByHeader, got)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// TestNewPanicsOnInvalidRingConfig pins the startup contract: a Config with
// peers but no self is a misconfiguration, not a silent no-op.
func TestNewPanicsOnInvalidRingConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted peers without self")
		}
	}()
	New(Config{Peers: []string{"http://b:1"}})
}

// TestRingMetricsGauges checks the membership gauge a fleet dashboard
// scrapes: the node count, whose inverse is each replica's keyspace share.
func TestRingMetricsGauges(t *testing.T) {
	_, listeners := newRingFleet(t, 3, func(int) Config { return Config{} })
	text := getMetricsText(t, listeners[0].URL)
	if got := metricValue(text, "chronosd_ring_nodes"); got != "3" {
		t.Errorf("chronosd_ring_nodes = %q, want 3", got)
	}
}

// TestFleetPinnedStrategyRoutesConsistently pins a strategy and requests
// the same key through every replica: all three answers must come from one
// owning replica, the in-process mirror of the scripts/ring-demo.sh smoke.
func TestFleetPinnedStrategyRoutesConsistently(t *testing.T) {
	_, listeners := newRingFleet(t, 3, func(int) Config { return Config{} })
	req := api.PlanRequest{Job: testJob(), Econ: testEcon(), Strategy: "clone"}
	served := make(map[string]bool)
	for _, ts := range listeners {
		resp := postJSON(t, ts.URL+"/v1/plan", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200", resp.StatusCode)
		}
		served[resp.Header.Get(ServedByHeader)] = true
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if len(served) != 1 {
		t.Errorf("pinned-strategy key served by %d replicas, want exactly 1: %v", len(served), served)
	}
}

// reqOwnedBy scans deadlines until it finds a plan request whose cache key
// is owned by the given member on s's current ring view.
func reqOwnedBy(t testing.TB, s *Server, owner string) api.PlanRequest {
	t.Helper()
	rs := s.ringSt.Load()
	for d := 0; d < 4096; d++ {
		job := testJob()
		job.Deadline = 100 + float64(d)
		if o, ok := rs.ring.Owner(plankey.Key("", job, testEcon())); ok && o == owner {
			return api.PlanRequest{Job: job, Econ: testEcon()}
		}
	}
	t.Fatalf("no key owned by %q in 4096 candidates", owner)
	return api.PlanRequest{}
}

// --- breaker state machine ------------------------------------------------

// TestBreakerConcurrentTripOpensOnce races many failures into one breaker
// under -race: the counter advances by CAS and the trip is a single
// closed→open CAS, so no interleaving may leave the circuit closed past the
// threshold.
func TestBreakerConcurrentTripOpensOnce(t *testing.T) {
	b := &breaker{threshold: 8, cooldown: time.Hour}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.fail()
		}()
	}
	wg.Wait()
	if b.allow() {
		t.Fatal("32 concurrent failures against threshold 8 left the circuit closed")
	}
}

// TestBreakerStragglerDoesNotExtendOpenWindow pins the fix for the old
// Add-then-Store counter: a failure landing while the circuit is already
// open (an in-flight straggler) must not push the open deadline out, or a
// trickle of stragglers postpones the half-open probe forever.
func TestBreakerStragglerDoesNotExtendOpenWindow(t *testing.T) {
	b := &breaker{threshold: 1, cooldown: 150 * time.Millisecond}
	b.fail() // trips: open for one cooldown from now
	if b.allow() {
		t.Fatal("circuit must be open immediately after tripping")
	}
	time.Sleep(90 * time.Millisecond)
	b.fail() // straggler from a forward that was in flight at trip time
	time.Sleep(90 * time.Millisecond)
	// 180 ms since the trip: the original window expired, and the straggler
	// must not have started a new one.
	if !b.allow() {
		t.Fatal("straggler failure extended the open window")
	}
	b.abort()
}

// TestBreakerHalfOpenSingleProbe: when the cooldown expires, exactly one
// caller wins the probe slot; a failed probe re-opens the circuit, a
// successful one closes it for everyone.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b := &breaker{threshold: 3, cooldown: 50 * time.Millisecond}
	for i := 0; i < 3; i++ {
		b.fail()
	}
	if b.allow() {
		t.Fatal("circuit should be open after threshold failures")
	}
	time.Sleep(60 * time.Millisecond)
	var wins atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.allow() {
				wins.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := wins.Load(); got != 1 {
		t.Fatalf("%d callers claimed the half-open probe, want exactly 1", got)
	}
	b.fail() // probe verdict: still dead
	if b.allow() {
		t.Fatal("failed probe must re-open the circuit")
	}
	time.Sleep(60 * time.Millisecond)
	if !b.allow() {
		t.Fatal("next cooldown expiry must admit a fresh probe")
	}
	b.success() // probe verdict: recovered
	if !b.allow() || !b.allow() {
		t.Fatal("successful probe must close the circuit for all callers")
	}
}

// TestBreakerAbortReleasesProbeSlot: a probe whose client disconnected
// proves nothing about the peer; aborting must hand the slot to the next
// caller instead of leaking it.
func TestBreakerAbortReleasesProbeSlot(t *testing.T) {
	b := &breaker{threshold: 1, cooldown: 30 * time.Millisecond}
	b.fail()
	time.Sleep(40 * time.Millisecond)
	if !b.allow() {
		t.Fatal("expired cooldown must admit a probe")
	}
	if b.allow() {
		t.Fatal("probe slot handed out twice")
	}
	b.abort()
	if !b.allow() {
		t.Fatal("aborted probe must release the slot to the next caller")
	}
}

// TestFleetHalfOpenProbesOncePerCooldown is the end-to-end half-open
// acceptance test: once a peer's circuit opens, each cooldown window admits
// exactly ONE forward attempt — the pre-fix breaker reset its counter on
// expiry and let a full threshold of requests hammer the dead peer per
// window.
func TestFleetHalfOpenProbesOncePerCooldown(t *testing.T) {
	const cooldown = 400 * time.Millisecond

	// The peer is a real replica behind a fault injector: while unhealthy,
	// /v1/plan answers 500; the rest (e.g. /healthz) passes through.
	peerSrv := New(Config{})
	peerHandler := peerSrv.Handler()
	var planHits atomic.Int32
	var healthy atomic.Bool
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/plan" {
			planHits.Add(1)
			if !healthy.Load() {
				w.WriteHeader(http.StatusInternalServerError)
				return
			}
		}
		peerHandler.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)

	s, ts := newTestServer(t, Config{BreakerThreshold: 3, BreakerCooldown: cooldown})
	if err := s.SetRing(ring.Membership{Self: ts.URL, Peers: []string{flaky.URL}}); err != nil {
		t.Fatal(err)
	}
	if err := peerSrv.SetRing(ring.Membership{Self: flaky.URL, Peers: []string{ts.URL}}); err != nil {
		t.Fatal(err)
	}
	req := reqOwnedBy(t, s, flaky.URL)
	post := func() error {
		resp, err := postJSONErr(ts.URL+"/v1/plan", req)
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil
	}

	// Phase 1: threshold consecutive peer failures trip the circuit; every
	// request still answers 200 via local fallback.
	for i := 0; i < 3; i++ {
		if err := post(); err != nil {
			t.Fatal(err)
		}
	}
	if got := planHits.Load(); got != 3 {
		t.Fatalf("peer saw %d plan forwards before the trip, want 3", got)
	}

	// Phase 2: the open circuit skips the peer entirely.
	for i := 0; i < 5; i++ {
		if err := post(); err != nil {
			t.Fatal(err)
		}
	}
	if got := planHits.Load(); got != 3 {
		t.Fatalf("open circuit forwarded anyway: peer saw %d requests, want 3", got)
	}

	// Phase 3: after the cooldown, a concurrent burst gets exactly one
	// half-open probe; its failure re-opens the circuit for everyone else.
	time.Sleep(cooldown + 50*time.Millisecond)
	var wg sync.WaitGroup
	errs := make(chan error, 10)
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- post()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := planHits.Load(); got != 4 {
		t.Fatalf("half-open window admitted %d probes, want exactly 1", got-3)
	}
	if err := post(); err != nil {
		t.Fatal(err)
	}
	if got := planHits.Load(); got != 4 {
		t.Fatal("failed probe did not re-open the circuit")
	}

	// Phase 4: the peer recovers; the next probe succeeds, closes the
	// circuit, and traffic forwards to the owner again.
	healthy.Store(true)
	time.Sleep(cooldown + 50*time.Millisecond)
	for i := 0; i < 2; i++ {
		resp, err := postJSONErr(ts.URL+"/v1/plan", req)
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Header.Get(ServedByHeader); got != flaky.URL {
			t.Fatalf("request %d after recovery served by %q, want owner %q", i, got, flaky.URL)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if got := planHits.Load(); got != 6 {
		t.Fatalf("peer saw %d plan requests after recovery, want 6", got)
	}
}

// TestForwardClientDisconnectDoesNotChargeBreaker: a client that gives up
// mid-forward proves nothing about the peer, so the aborted attempt must
// leave the peer's breaker untouched (threshold 1 would otherwise open it)
// and must not count as a peer error.
func TestForwardClientDisconnectDoesNotChargeBreaker(t *testing.T) {
	peerGot := make(chan struct{})
	hanging := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first: net/http only watches for the peer closing
		// the connection once the handler consumed the request.
		_, _ = io.Copy(io.Discard, r.Body)
		close(peerGot)
		<-r.Context().Done()
	}))
	t.Cleanup(hanging.Close)

	s, ts := newTestServer(t, Config{BreakerThreshold: 1, ForwardTimeout: 10 * time.Second})
	if err := s.SetRing(ring.Membership{Self: ts.URL, Peers: []string{hanging.URL}}); err != nil {
		t.Fatal(err)
	}
	req := reqOwnedBy(t, s, hanging.URL)
	strat, best, _ := plankey.ParseStrategy(req.Strategy)
	c := cell{strat: strat, best: best, job: req.Job, econ: req.Econ}
	c.key = []byte(plankey.Key(c.name(), req.Job, req.Econ))

	hreq := httptest.NewRequest(http.MethodPost, "/v1/plan", nil)
	ctx, cancel := context.WithCancel(hreq.Context())
	hreq = hreq.WithContext(ctx)
	go func() {
		<-peerGot
		cancel()
	}()

	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if done := s.forwardToOwner(httptest.NewRecorder(), hreq, "/v1/plan", &c, body); !done {
		t.Fatal("client disconnect mid-forward must consume the request, not fall back locally")
	}
	peer := s.ringSt.Load().peers[hanging.URL]
	if peer == nil {
		t.Fatal("peer state missing for the hanging owner")
	}
	if got := peer.breaker.failures.Load(); got != 0 {
		t.Fatalf("disconnect charged the breaker with %d failures, want 0", got)
	}
	if !peer.breaker.allow() {
		t.Fatal("disconnect opened the peer's circuit")
	}
	text := getMetricsText(t, ts.URL)
	errLine := "chronosd_ring_peer_errors_total{peer=\"" + hanging.URL + "\"}"
	if got := metricValue(text, errLine); got != "" {
		t.Errorf("%s = %q, want absent (the peer did nothing wrong)", errLine, got)
	}
}
