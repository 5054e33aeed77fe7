package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chronos"
	"chronos/api"
	"chronos/internal/ring"
	"chronos/internal/tenant"
)

// escrowFleet boots an n-replica ring with escrow accounting on and an
// identical single-tenant config per replica (the deployment contract), as
// cmd/chronosd replicas sharing one tenants.json would.
func escrowFleet(t *testing.T, n int, tenantName string, budget float64) ([]*Server, []string) {
	t.Helper()
	servers, listeners := newRingFleet(t, n, func(i int) Config {
		return Config{
			Tenants: testRegistry(t, tenantName, budget),
			Escrow:  true,
		}
	})
	urls := make([]string, n)
	for i, ts := range listeners {
		urls[i] = ts.URL
	}
	for _, s := range servers {
		t.Cleanup(s.Close)
	}
	return servers, urls
}

// TestFleetEscrowNeverOverCommits is the tentpole acceptance property:
// concurrent admits spread across every replica of a 3-replica fleet can
// never debit more machine time, fleet-wide, than the tenant's single
// configured budget. Run under -race this also exercises the lease CAS
// path, the synchronous top-up, and the owner's grant lock concurrently.
func TestFleetEscrowNeverOverCommits(t *testing.T) {
	mt := bestPlanMachineTime(t)
	budget := 6 * mt // room for ~6 optimal plans across the whole fleet
	_, urls := escrowFleet(t, 3, "etl", budget)

	const workers = 6
	const perWorker = 8
	var (
		mu       sync.Mutex
		admitted float64
		admits   int
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Distinct job shapes spread plan keys (and so serving
				// replicas) across the ring; the request entry point rotates
				// across replicas too.
				job := testJob()
				job.Tasks = 8 + (w*perWorker+i)%7
				req := api.AdmitRequest{Tenant: "etl", Job: job, Econ: testEcon()}
				raw, err := json.Marshal(req)
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(urls[(w+i)%len(urls)]+"/v1/admit",
					"application/json", strings.NewReader(string(raw)))
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("admit: status %d body %s err %v", resp.StatusCode, body, err)
					return
				}
				var dec api.AdmitResponse
				if err := json.Unmarshal(body, &dec); err != nil {
					t.Error(err)
					return
				}
				if dec.Admitted {
					mu.Lock()
					admitted += dec.Plan.MachineTime
					admits++
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()

	if admits == 0 {
		t.Fatal("no admits succeeded; escrow leasing is not granting budget")
	}
	if admitted > budget*(1+1e-9) {
		t.Fatalf("fleet admitted %g machine-seconds against a %g budget: over-committed by %g",
			admitted, budget, admitted-budget)
	}
	t.Logf("fleet admitted %d plans, %g of %g machine-seconds", admits, admitted, budget)

	// The escrow surface is observable: some replica owns the tenant and
	// reports outstanding escrow, and the lease/grant counters exist.
	sawOutstanding := false
	for _, u := range urls {
		text := getMetricsText(t, u)
		if strings.Contains(text, `chronosd_escrow_outstanding{tenant="etl"}`) {
			sawOutstanding = true
		}
	}
	if !sawOutstanding {
		t.Error("no replica exposes chronosd_escrow_outstanding for the tenant")
	}
}

// TestEscrowRestartRestoresLevels: a pool owner that dies without a
// graceful shutdown (WAL only, no final snapshot) and one that shuts down
// cleanly both come back with exactly the level they had — no lost and no
// duplicated debits.
func TestEscrowRestartRestoresLevels(t *testing.T) {
	dir := t.TempDir()
	mt := bestPlanMachineTime(t)
	budget := 4 * mt

	open := func() *tenant.Store {
		st, err := tenant.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	admitOnce := func(url string, tasks int) float64 {
		job := testJob()
		job.Tasks = tasks
		resp := postJSON(t, url+"/v1/admit", api.AdmitRequest{Tenant: "etl", Job: job, Econ: testEcon()})
		dec := decodeBody[api.AdmitResponse](t, resp)
		if !dec.Admitted {
			t.Fatalf("admit(tasks=%d) rejected: %s", tasks, dec.Reason)
		}
		return dec.BudgetRemaining
	}

	// Generation 1: two debits, then a hard crash (the store is closed to
	// flush file handles, but the server never compacts or releases).
	store1 := open()
	srv1, ts1 := newTestServer(t, Config{
		Tenants: testRegistry(t, "etl", budget), Escrow: true, Store: store1,
	})
	admitOnce(ts1.URL, 10)
	wantRemaining := admitOnce(ts1.URL, 11)
	_ = srv1 // deliberately not Closed: simulates a crash
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	// Generation 2 boots from the anchor snapshot + WAL replay.
	store2 := open()
	srv2, ts2 := newTestServer(t, Config{
		Tenants: testRegistry(t, "etl", budget), Escrow: true, Store: store2,
	})
	got := srv2.Tenants().Get("etl").Remaining()
	if diff := got - wantRemaining; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("after crash restart: remaining = %g, want %g (lost or duplicated debits)", got, wantRemaining)
	}

	// Generation 2 spends more, then shuts down gracefully (final compact).
	wantRemaining = admitOnce(ts2.URL, 12)
	srv2.Close()
	if err := store2.Close(); err != nil {
		t.Fatal(err)
	}

	// Generation 3 boots from the compacted snapshot alone.
	store3 := open()
	srv3, _ := newTestServer(t, Config{
		Tenants: testRegistry(t, "etl", budget), Escrow: true, Store: store3,
	})
	defer srv3.Close()
	got = srv3.Tenants().Get("etl").Remaining()
	if diff := got - wantRemaining; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("after graceful restart: remaining = %g, want %g", got, wantRemaining)
	}
}

// leaseHolder puts s on a two-member ring whose other member it returns: the
// one holder s, which owns the tenant's pool there, grants leases to. The
// choice is a pure function of the tenant name; neither URL is listened on.
func leaseHolder(t testing.TB, s *Server, tenantName string) string {
	t.Helper()
	for port := 2; port < 64; port++ {
		holder := "http://127.0.0.1:" + strconv.Itoa(port)
		if err := s.SetRing(ring.Membership{Self: "http://127.0.0.1:1", Peers: []string{holder}}); err != nil {
			t.Fatal(err)
		}
		if s.escrow.ownsTenant(tenantName) {
			return holder
		}
	}
	t.Fatalf("no two-member ring gives this replica tenant %q", tenantName)
	return ""
}

// leaseViaHTTP drives the owner-side escrow API directly, playing a remote
// holder.
func leaseViaHTTP(t *testing.T, url string, req escrowLeaseRequest) escrowLeaseResponse {
	t.Helper()
	resp := postJSON(t, url+escrowPath, req)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("escrow lease: status %d: %s", resp.StatusCode, body)
	}
	return decodeBody[escrowLeaseResponse](t, resp)
}

// TestSetTenantsRebaseWithOutstandingLeases: a SIGHUP tenant reload must
// not double-count budget that is out on lease. A same-shape reload carries
// the ledger (level unchanged); a reshaped reload starts a fresh bucket and
// re-debits the outstanding escrow from it.
func TestSetTenantsRebaseWithOutstandingLeases(t *testing.T) {
	const budget = 1000.0
	srv, ts := newTestServer(t, Config{
		Tenants: testRegistry(t, "etl", budget), Escrow: true,
	})
	defer srv.Close()
	holder := leaseHolder(t, srv, "etl")

	// A remote holder leases 300 machine-seconds of escrow.
	grant := leaseViaHTTP(t, ts.URL, escrowLeaseRequest{
		Tenant: "etl", Holder: holder, Want: 300,
	})
	if grant.Granted != 300 {
		t.Fatalf("granted = %g, want 300", grant.Granted)
	}
	if got := srv.Tenants().Get("etl").Remaining(); got != 700 {
		t.Fatalf("post-grant remaining = %g, want 700", got)
	}

	// Same-shape reload: the pool carries its ledger, so the lease stays
	// accounted exactly once.
	reload1 := testRegistry(t, "etl", budget)
	reload1.Rebase(srv.Tenants())
	srv.SetTenants(reload1)
	if got := srv.Tenants().Get("etl").Remaining(); got != 700 {
		t.Fatalf("after same-shape reload: remaining = %g, want 700", got)
	}

	// Reshaped reload (budget doubled): the fresh bucket must be re-debited
	// by the outstanding 300, not start at the full 2000.
	reload2 := testRegistry(t, "etl", 2*budget)
	reload2.Rebase(srv.Tenants())
	srv.SetTenants(reload2)
	if got := srv.Tenants().Get("etl").Remaining(); got != 1700 {
		t.Fatalf("after reshaped reload: remaining = %g, want 1700 (leased budget double-counted?)", got)
	}

	// The holder comes back from the lease: 100 spent, 200 unspent. The
	// release credits exactly the unspent escrow.
	leaseViaHTTP(t, ts.URL, escrowLeaseRequest{
		Tenant: "etl", Holder: holder, Unspent: 200, Release: true,
	})
	if got := srv.Tenants().Get("etl").Remaining(); got != 1900 {
		t.Fatalf("after release: remaining = %g, want 1900", got)
	}
}

// TestErrorEnvelopeUnified: every /v1 error carries the unified envelope —
// error text, stable code, and the request's trace ID — while readers of
// the legacy reason field still see it on budget rejections.
func TestErrorEnvelopeUnified(t *testing.T) {
	_, ts := newTestServer(t, Config{Tenants: testRegistry(t, "etl", 1)})

	cases := []struct {
		name       string
		do         func() *http.Response
		wantStatus int
		wantCode   string
	}{
		{
			name: "bad json",
			do: func() *http.Response {
				resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader("{"))
				if err != nil {
					t.Fatal(err)
				}
				return resp
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   api.CodeBadRequest,
		},
		{
			name: "unknown tenant",
			do: func() *http.Response {
				return postJSON(t, ts.URL+"/v1/admit", api.AdmitRequest{Tenant: "nope", Job: testJob()})
			},
			wantStatus: http.StatusNotFound,
			wantCode:   api.CodeNotFound,
		},
		{
			name: "budget exhausted",
			do: func() *http.Response {
				return postJSON(t, ts.URL+"/v1/plan",
					api.PlanRequest{Tenant: "etl", Job: testJob(), Econ: testEcon()})
			},
			wantStatus: http.StatusTooManyRequests,
			wantCode:   api.CodeBudgetExhausted,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := tc.do()
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			var env api.ErrorResponse
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Fatalf("not an error envelope: %s", raw)
			}
			if env.Error == "" {
				t.Error("envelope error text is empty")
			}
			if env.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", env.Code, tc.wantCode)
			}
			if env.TraceID == "" {
				t.Error("envelope trace ID is empty")
			}
			if header := resp.Header.Get("X-Chronosd-Trace-Id"); env.TraceID != header {
				t.Errorf("envelope trace ID %q != response header %q", env.TraceID, header)
			}
			// Compatibility: a pre-envelope reader that only knows the
			// legacy reason field still sees structured budget rejections.
			if tc.wantStatus == http.StatusTooManyRequests {
				var legacy struct {
					Error  string `json:"error"`
					Reason string `json:"reason"`
				}
				if err := json.Unmarshal(raw, &legacy); err != nil {
					t.Fatal(err)
				}
				if legacy.Reason != api.ReasonBudgetExhausted {
					t.Errorf("legacy reason = %q, want %q", legacy.Reason, api.ReasonBudgetExhausted)
				}
			}
		})
	}
}

// TestEscrowLeaseNotOwner: a lease call that lands on a non-owner answers
// 409/not_owner so a holder racing a membership reload re-resolves instead
// of splitting the pool across two owners.
func TestEscrowLeaseNotOwner(t *testing.T) {
	servers, urls := escrowFleet(t, 2, "etl", 1000)
	// Find the replica that does NOT own the tenant key.
	nonOwner := -1
	for i, s := range servers {
		if !s.escrow.ownsTenant("etl") {
			nonOwner = i
		}
	}
	if nonOwner == -1 {
		t.Fatal("both replicas claim tenant ownership")
	}
	resp := postJSON(t, urls[nonOwner]+escrowPath, escrowLeaseRequest{
		Tenant: "etl", Holder: urls[1-nonOwner], Want: 10,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d, want 409", resp.StatusCode)
	}
	env := decodeBody[api.ErrorResponse](t, resp)
	if env.Code != api.CodeNotOwner {
		t.Errorf("code = %q, want %q", env.Code, api.CodeNotOwner)
	}
}

// TestEscrowSoloFallsBackToOwnerPath: with sharding off, one replica owns
// every tenant and escrow mode degrades to direct WAL-logged pool debits —
// admission behavior is indistinguishable from legacy mode.
func TestEscrowSoloFallsBackToOwnerPath(t *testing.T) {
	mt := bestPlanMachineTime(t)
	srv, ts := newTestServer(t, Config{
		Tenants: testRegistry(t, "etl", 2*mt+1), Escrow: true,
	})
	defer srv.Close()
	admits := 0
	for i := 0; i < 5; i++ {
		resp := postJSON(t, ts.URL+"/v1/admit", api.AdmitRequest{Tenant: "etl", Job: testJob(), Econ: testEcon()})
		dec := decodeBody[api.AdmitResponse](t, resp)
		if dec.Admitted {
			admits++
		}
	}
	if admits < 2 {
		t.Fatalf("admits = %d, want >= 2 (escrow solo mode rejects affordable jobs)", admits)
	}
}

// leaseOwnerStub stands in for a tenant's pool owner on a 2-member ring: a
// Server with escrow on whose only peer is an httptest listener running h.
func leaseOwnerStub(t *testing.T, cfg Config, h http.HandlerFunc) (s *Server, self, owner string) {
	t.Helper()
	peer := httptest.NewServer(h)
	t.Cleanup(peer.Close)
	cfg.Tenants, cfg.Escrow = testRegistry(t, "etl", 1e6), true
	s, ts := newTestServer(t, cfg)
	t.Cleanup(s.Close)
	if err := s.SetRing(ring.Membership{Self: ts.URL, Peers: []string{peer.URL}}); err != nil {
		t.Fatal(err)
	}
	return s, ts.URL, peer.URL
}

// TestLeaseAnswerSettlesHalfOpenProbe: when the first call through a lapsed
// open circuit is a lease request the owner answers 409 not_owner, that
// answer must settle the half-open probe — the next forward to the peer is
// attempted. (leaseCall used to settle the breaker on neither path of a
// non-200 answer, wedging the gate at probing until restart.)
func TestLeaseAnswerSettlesHalfOpenProbe(t *testing.T) {
	var down atomic.Bool
	var planHits atomic.Int32
	down.Store(true)
	s, self, owner := leaseOwnerStub(t, Config{BreakerThreshold: 1, BreakerCooldown: 20 * time.Millisecond},
		func(w http.ResponseWriter, r *http.Request) {
			switch {
			case down.Load():
				w.WriteHeader(http.StatusInternalServerError)
			case r.URL.Path == escrowPath:
				w.WriteHeader(http.StatusConflict)
				_, _ = io.WriteString(w, `{"error":"not the owner","code":"not_owner"}`)
			default:
				planHits.Add(1)
				_, _ = io.WriteString(w, `{}`)
			}
		})
	forward := func() {
		resp := postJSON(t, self+"/v1/plan", reqOwnedBy(t, s, owner))
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	forward() // answered 500: the circuit opens
	down.Store(false)
	time.Sleep(40 * time.Millisecond) // cooldown lapses: the next call is the probe
	if s.escrow.topUp(context.Background(), "etl", owner, s.Tenants().Get("etl"), s.escrow.lease("etl"), 10) {
		t.Fatal("a 409 lease answer granted escrow")
	}
	forward()
	if got := planHits.Load(); got != 1 {
		t.Fatalf("peer saw %d forwards after the 409 lease probe, want 1 (half-open slot left claimed)", got)
	}
}

// TestLeaseCallerCancelDoesNotChargeOwner: a client that disconnects while
// its admit waits on a lease top-up proves nothing about the owner, whose
// breaker must stay untouched (threshold 1 would otherwise open it).
func TestLeaseCallerCancelDoesNotChargeOwner(t *testing.T) {
	reached := make(chan struct{})
	var once sync.Once // the stub also receives the lease release of s.Close
	s, _, owner := leaseOwnerStub(t, Config{BreakerThreshold: 1, ForwardTimeout: 10 * time.Second},
		func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			once.Do(func() { close(reached) })
			<-r.Context().Done()
		})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-reached
		cancel()
	}()
	if s.escrow.topUp(ctx, "etl", owner, s.Tenants().Get("etl"), s.escrow.lease("etl"), 10) {
		t.Fatal("cancelled top-up reported a grant")
	}
	p := s.ringSt.Load().peers[owner]
	if got := p.breaker.failures.Load(); got != 0 {
		t.Fatalf("client disconnect charged the owner with %d failures, want 0", got)
	}
	if !p.breaker.allow() {
		t.Fatal("client disconnect opened the owner's circuit")
	}
}

// TestFleetEscrowHugeBudget: a 1e15 machine-second budget puts a tenth of
// it — more than an int64 of micro machine-seconds — in every lease target.
// The lease conversion used to wrap negative, so every admit on every
// replica was refused while each attempt drained another grant from the
// pool; now targets are capped and every replica admits.
func TestFleetEscrowHugeBudget(t *testing.T) {
	servers, urls := escrowFleet(t, 3, "deep", 1e15)
	for i := 0; i < 12; i++ {
		job := testJob()
		job.Tasks = 8 + i%7 // spread plan keys, and so serving replicas
		resp := postJSON(t, urls[i%3]+"/v1/admit", api.AdmitRequest{Tenant: "deep", Job: job, Econ: testEcon()})
		if dec := decodeBody[api.AdmitResponse](t, resp); !dec.Admitted {
			t.Fatalf("admit %d via replica %d refused: %+v", i, i%3, dec)
		}
	}
	for i, s := range servers {
		if !s.escrow.ownsTenant("deep") {
			if lvl := s.escrow.lease("deep").Level(); lvl < 0 {
				t.Errorf("replica %d lease level %g wrapped negative", i, lvl)
			}
		}
	}
}

// TestWALAppendFailureCounted: an admit the WAL could not record is still
// answered — the ledger has already mutated — but it must be visible as
// chronosd_escrow_wal_append_failures_total, the operator's only warning
// that a restart would resurrect spent budget.
func TestWALAppendFailureCounted(t *testing.T) {
	store, err := tenant.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Tenants: testRegistry(t, "etl", 1e9), Escrow: true, Store: store})
	t.Cleanup(s.Close)
	const failures = "chronosd_escrow_wal_append_failures_total"
	if got := metricValue(getMetricsText(t, ts.URL), failures); got != "0" {
		t.Fatalf("%s = %q before any failure, want 0", failures, got)
	}
	if err := store.Close(); err != nil { // every append from here on fails
		t.Fatal(err)
	}
	got := decodeBody[api.AdmitResponse](t, postJSON(t, ts.URL+"/v1/admit",
		api.AdmitRequest{Tenant: "etl", Job: testJob(), Econ: testEcon()}))
	if !got.Admitted {
		t.Fatalf("admit rejected (%q); a WAL failure must not fail the request", got.Reason)
	}
	if got := metricValue(getMetricsText(t, ts.URL), failures); got != "1" {
		t.Errorf("%s = %q after one unlogged debit, want 1", failures, got)
	}
}

// TestOpenRejectsStoreWithoutEscrow: only the escrow ledger is persisted, so
// a Store without Escrow would write nothing and a restart would restore
// every pool to full. Open used to accept it silently.
func TestOpenRejectsStoreWithoutEscrow(t *testing.T) {
	store, err := tenant.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	s, err := Open(Config{Tenants: testRegistry(t, "etl", 1000), Store: store})
	if err == nil {
		s.Close()
		t.Fatal("Open accepted a Store without Escrow")
	}
	if !strings.Contains(err.Error(), "escrow") {
		t.Errorf("error %q does not name escrow", err)
	}
}

// TestEscrowLeaseRejectsUnknownHolder: a lease is granted only to another
// member of the ring. One POST naming a made-up holder used to
// move the whole pool into a lease nobody would ever spend or release.
func TestEscrowLeaseRejectsUnknownHolder(t *testing.T) {
	const budget = 1000.0
	s, ts := newTestServer(t, Config{Tenants: testRegistry(t, "etl", budget), Escrow: true})
	t.Cleanup(s.Close)
	refused := func(when, holder string) {
		t.Helper()
		resp := postJSON(t, ts.URL+escrowPath, escrowLeaseRequest{Tenant: "etl", Holder: holder, Want: 1e9})
		if env := decodeBody[api.ErrorResponse](t, resp); resp.StatusCode != http.StatusBadRequest || env.Code != api.CodeBadRequest {
			t.Errorf("%s, holder %q: %d %q, want 400 %q", when, holder, resp.StatusCode, env.Code, api.CodeBadRequest)
		}
		if got := s.Tenants().Get("etl").Remaining(); got != budget {
			t.Fatalf("%s, holder %q: the refused lease left %g in the pool, want %g", when, holder, got, budget)
		}
	}
	refused("without a ring", "http://127.0.0.1:2")
	member := leaseHolder(t, s, "etl")
	self, _ := s.RingMembers()
	for _, holder := range []string{"nobody", "", self, member + "0"} {
		refused("on a ring", holder)
	}
	if grant := leaseViaHTTP(t, ts.URL, escrowLeaseRequest{Tenant: "etl", Holder: member, Want: 100}); grant.Granted != 100 {
		t.Errorf("a member was granted %g, want 100", grant.Granted)
	}
}

// FuzzEscrowLeaseRequest posts arbitrary bytes to /v1/escrow/lease, the one
// body only a peer sends, on an owner with one other ring member. No body
// may panic the handler or earn a 5xx, and a body that is refused must leave
// the pool level and the escrow out on lease where they were. Each input gets
// a fresh owner, so a failure reproduces from its input alone.
func FuzzEscrowLeaseRequest(f *testing.F) {
	const budget = 1000.0
	owner := func(t testing.TB) (*Server, string) {
		s := New(Config{Tenants: testRegistry(t, "etl", budget), Escrow: true})
		return s, leaseHolder(t, s, "etl")
	}
	s, member := owner(f)
	s.Close()
	valid := `{"tenant":"etl","holder":"` + member + `","want":100}`
	for _, seed := range []string{
		valid,
		`{"tenant":"etl","holder":"` + member + `","want":1e9}`,
		`{"tenant":"etl","holder":"nobody","want":1e9}`,
		`{"tenant":"etl","holder":"","want":100}`,
		valid + " xyz",
		valid + valid,
		`{"tenant":"etl","holder":"` + member + `","spent":-50,"want":-100}`,
		`{"tenant":"etl","holder":"` + member + `","release":true,"unspent":1e300}`,
		`{"tenant":"nope","holder":"` + member + `","want":100}`,
		`{"tenant":"etl","holder":"` + member + `","want":"100"}`,
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s, _ := owner(t)
		defer s.Close()
		pool := s.Tenants().Get("etl")
		level := func() (float64, float64) {
			_, out := s.escrow.led.Outstanding("etl")
			return pool.Remaining(), out
		}
		beforePool, beforeOut := level()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, escrowPath, bytes.NewReader(body)))
		afterPool, afterOut := level()
		switch {
		case rec.Code >= 500:
			t.Fatalf("%d for body %q: %s", rec.Code, body, rec.Body)
		case rec.Code >= 300 && (afterPool != beforePool || afterOut != beforeOut):
			t.Fatalf("%d for body %q moved the pool %g -> %g and the escrow %g -> %g",
				rec.Code, body, beforePool, afterPool, beforeOut, afterOut)
		case rec.Code < 300 && (afterPool < 0 || afterPool > budget):
			t.Fatalf("%d for body %q left the pool at %g of %g", rec.Code, body, afterPool, budget)
		}
	})
}

// TestFleetEscrowOwnerDeathNeverOverCommits: a dead pool owner must not hand
// its tenant a second budget. Pools are owned on the one ring, so a survivor
// never becomes the owner: with the owner's circuit open its lease cannot be
// topped up, and it refuses what its lease cannot pay for. (While a health
// monitor moved ownership to the survivors, one became the owner with a pool
// no debit had ever reached and admitted the whole budget again.)
func TestFleetEscrowOwnerDeathNeverOverCommits(t *testing.T) {
	budget := 4.4 * bestPlanMachineTime(t)
	servers, listeners := newRingFleet(t, 3, func(int) Config {
		return Config{
			Tenants: testRegistry(t, "etl", budget), Escrow: true,
			BreakerThreshold: 1,
		}
	})
	owner := -1
	for i, s := range servers {
		t.Cleanup(s.Close)
		if s.escrow.ownsTenant("etl") {
			owner = i
		}
	}
	// A job whose plan key the pool owner owns too, so that every replica's
	// admit debits the pool itself: a holder cannot pay for a plan this size
	// out of its lease (at most a tenth of the budget).
	job := reqOwnedBy(t, servers[0], listeners[owner].URL).Job
	req := api.AdmitRequest{Tenant: "etl", Job: job, Econ: testEcon()}
	admit := func(via int) api.AdmitResponse {
		t.Helper()
		resp := postJSON(t, listeners[via].URL+"/v1/admit", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("admit via replica %d: status %d", via, resp.StatusCode)
		}
		return decodeBody[api.AdmitResponse](t, resp)
	}

	// Spend the pool: the job through every replica until all refuse it.
	admitted := 0.0
	for i, refusals := 0, 0; refusals < 3; i++ {
		if i == 100 {
			t.Fatal("the pool never ran dry")
		}
		if dec := admit(i % 3); dec.Admitted {
			admitted, refusals = admitted+dec.Plan.MachineTime, 0
		} else {
			refusals++
		}
	}
	if admitted < budget/2 {
		t.Fatalf("the fleet admitted %g machine-seconds of a %g budget before the outage", admitted, budget)
	}

	listeners[owner].Close()
	survivors := []int{(owner + 1) % 3, (owner + 2) % 3}
	for _, i := range survivors {
		if dec := admit(i); dec.Admitted {
			admitted += dec.Plan.MachineTime
			t.Errorf("survivor %d admitted %g machine-seconds with the pool owner dead", i, dec.Plan.MachineTime)
		} else if dec.Reason != api.ReasonBudgetExhausted {
			t.Errorf("survivor %d refused with reason %q, want %q", i, dec.Reason, api.ReasonBudgetExhausted)
		}
		resp := postJSON(t, listeners[i].URL+"/v1/admit/batch", api.AdmitBatchRequest{
			Tenant: "etl", Econ: testEcon(), Jobs: []api.AdmitBatchJob{{Job: job}, {Job: job}},
		})
		for k, res := range decodeBody[api.AdmitBatchResponse](t, resp).Results {
			if res.Admitted {
				admitted += res.Plan.MachineTime
				t.Errorf("survivor %d admitted batch job %d with the pool owner dead", i, k)
			} else if res.Reason != api.ReasonBudgetExhausted {
				t.Errorf("survivor %d refused batch job %d with reason %q, want %q", i, k, res.Reason, api.ReasonBudgetExhausted)
			}
		}
	}
	if admitted > budget*(1+1e-9) {
		t.Fatalf("fleet admitted %g machine-seconds against a %g budget through the owner's death", admitted, budget)
	}
}

// TestEscrowRestartedHolderNeverOverCredits: a holder replica spends out of
// its lease, crashes before any later call reports the spend, and restarts
// under the same URL with an empty lease. It admits again and shuts down
// gracefully. The release must return only what the restarted holder still
// holds. It used to report its own spend and have the owner credit the rest
// of the outstanding escrow, which put the first life's spend back in the
// pool.
func TestEscrowRestartedHolderNeverOverCredits(t *testing.T) {
	budget := 20 * bestPlanMachineTime(t) // lease target: two plans
	owner, ots := newTestServer(t, Config{Tenants: testRegistry(t, "etl", budget), Escrow: true})
	t.Cleanup(owner.Close)
	var holder string
	for port := 2; holder == ""; port++ {
		url := "http://127.0.0.1:" + strconv.Itoa(port)
		if err := owner.SetRing(ring.Membership{Self: ots.URL, Peers: []string{url}}); err != nil {
			t.Fatal(err)
		}
		if owner.escrow.ownsTenant("etl") {
			holder = url
		}
	}
	// boot starts one life of the holder: a fresh Server under the same self
	// URL, reached through a listener of its own.
	boot := func() (*Server, string) {
		s, ts := newTestServer(t, Config{Tenants: testRegistry(t, "etl", budget), Escrow: true})
		if err := s.SetRing(ring.Membership{Self: holder, Peers: []string{ots.URL}}); err != nil {
			t.Fatal(err)
		}
		return s, ts.URL
	}
	var spent float64
	admit := func(url string, job chronos.JobParams) {
		t.Helper()
		resp := postJSON(t, url+"/v1/admit", api.AdmitRequest{Tenant: "etl", Job: job, Econ: testEcon()})
		dec := decodeBody[api.AdmitResponse](t, resp)
		if !dec.Admitted {
			t.Fatalf("admit refused: %+v", dec)
		}
		spent += dec.Plan.MachineTime
	}

	first, url := boot()
	t.Cleanup(first.Close)
	// A key the holder owns, so it is served and paid for on the holder.
	job := reqOwnedBy(t, first, holder).Job
	admit(url, job) // spent out of the lease; the crash comes before any report

	second, url := boot()
	admit(url, job)
	second.Close()

	pool := owner.Tenants().Get("etl").Remaining()
	_, outstanding := owner.escrow.led.Outstanding("etl")
	held := second.escrow.lease("etl").Level()
	if total := pool + outstanding + held; total > budget-spent+1e-6 {
		t.Fatalf("pool %g + outstanding %g + held %g = %g exceeds budget %g - true spend %g = %g",
			pool, outstanding, held, total, budget, spent, budget-spent)
	}
}
