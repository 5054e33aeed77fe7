package server

import (
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"chronos/api"
	"chronos/internal/plankey"
	"chronos/internal/ring"
)

// metricAtLeast parses the named counter from a metrics scrape and reports
// whether it reached min.
func metricAtLeast(text, prefix string, min int) bool {
	v, err := strconv.ParseFloat(metricValue(text, prefix), 64)
	return err == nil && v >= float64(min)
}

// TestFleetOwnerDeathAndReturn is the fleet's death-and-rebirth cycle, run
// under -race, with the owner's breaker as the only liveness judge:
//
//  1. A 3-replica fleet solves one plan on the key's owner, reached through a
//     forward.
//  2. The owner's listener dies. The next request for the key is solved once
//     more, by the replica it was sent to (nothing holds a copy of the plan),
//     and is a hit there afterwards.
//  3. The owner comes back on the same address; within one BreakerCooldown
//     the half-open probe is a live request, and the key is forwarded to the
//     owner again.
func TestFleetOwnerDeathAndReturn(t *testing.T) {
	const (
		n        = 3
		cooldown = 100 * time.Millisecond
	)
	servers := make([]*Server, n)
	httpSrvs := make([]*http.Server, n)
	urls := make([]string, n)
	solves := make([]atomic.Int32, n)

	// The fleet runs on real net.Listeners (not httptest) because the dead
	// owner's port must be re-bindable for the return half.
	for i := 0; i < n; i++ {
		i := i
		servers[i] = New(Config{BreakerThreshold: 1, BreakerCooldown: cooldown})
		t.Cleanup(servers[i].Close)
		servers[i].solveHook = func(string) { solves[i].Add(1) }
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		urls[i] = "http://" + ln.Addr().String()
		httpSrvs[i] = &http.Server{Handler: servers[i].Handler()}
		go httpSrvs[i].Serve(ln)
		t.Cleanup(func() { httpSrvs[i].Close() })
	}
	for i := 0; i < n; i++ {
		if err := servers[i].SetRing(ring.Membership{Self: urls[i], Peers: urls}); err != nil {
			t.Fatalf("SetRing(replica %d): %v", i, err)
		}
	}

	req := api.PlanRequest{Job: testJob(), Econ: testEcon()}
	ownerURL, _ := servers[0].ringSt.Load().ring.Owner(plankey.Key("", req.Job, req.Econ))
	owner := slices.Index(urls, ownerURL)
	if owner < 0 {
		t.Fatalf("%q is not a fleet member", ownerURL)
	}
	via := (owner + 1) % n
	// plan posts the key through replica via and reports who served it.
	plan := func(step string) (servedBy string, cached bool) {
		t.Helper()
		resp := postJSON(t, urls[via]+"/v1/plan", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d, want 200", step, resp.StatusCode)
		}
		return resp.Header.Get(ServedByHeader), decodeBody[api.PlanResponse](t, resp).Cached
	}

	// 1. Solve through a non-owner: the owner computes and caches.
	if by, cached := plan("initial plan"); by != urls[owner] || cached {
		t.Fatalf("initial plan served by %q cached=%v, want a cold solve on the owner %q", by, cached, urls[owner])
	}
	if got := solves[owner].Load(); got != 1 {
		t.Fatalf("initial plan cost the owner %d solves, want 1", got)
	}

	// 2. Kill the owner and re-request the key: the forward fails, and the
	// replica that took the request solves it itself, once.
	if err := httpSrvs[owner].Close(); err != nil {
		t.Fatal(err)
	}
	if by, cached := plan("plan with dead owner"); by != urls[via] || cached {
		t.Errorf("dead-owner plan served by %q cached=%v, want a cold solve on %q", by, cached, urls[via])
	}
	if by, cached := plan("second plan with dead owner"); by != urls[via] || !cached {
		t.Errorf("second dead-owner plan served by %q cached=%v, want a hit on %q", by, cached, urls[via])
	}
	if got := solves[via].Load(); got != 1 {
		t.Errorf("owner death cost replica %d %d solves, want 1", via, got)
	}
	if text := getMetricsText(t, urls[via]); !metricAtLeast(text, "chronosd_ring_local_fallbacks_total", 1) {
		t.Errorf("chronosd_ring_local_fallbacks_total = %q, want >= 1",
			metricValue(text, "chronosd_ring_local_fallbacks_total"))
	}

	// 3. Restart the owner on its old address. Every failure above predates
	// the restart, so one cooldown later the circuit admits its half-open
	// probe, and that probe is the next request: forwarded, answered, closed.
	ln, err := net.Listen("tcp", strings.TrimPrefix(urls[owner], "http://"))
	if err != nil {
		t.Fatal(err)
	}
	restarted := &http.Server{Handler: servers[owner].Handler()}
	go restarted.Serve(ln)
	t.Cleanup(func() { restarted.Close() })

	time.Sleep(cooldown)
	if by, _ := plan("plan after the owner returned"); by != urls[owner] {
		t.Errorf("plan one cooldown after the owner returned served by %q, want the owner %q", by, urls[owner])
	}
	forwarded := "chronosd_ring_forwarded_total{peer=\"" + urls[owner] + "\"}"
	if text := getMetricsText(t, urls[via]); !metricAtLeast(text, forwarded, 2) {
		t.Errorf("%s = %q, want >= 2 (one forward before the outage, one after)", forwarded, metricValue(text, forwarded))
	}
}
