package server

import (
	"net"
	"net/http"
	"slices"
	"strconv"
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

// TestFleetHealthEvictionAndReadmit is the fleet's death-and-rebirth cycle,
// run under -race:
//
//  1. A 3-replica fleet with heartbeat membership solves one plan on the
//     key's owner, reached through a forward.
//  2. The owner's listener dies. The next request for the key is solved once
//     more, by the replica it was sent to (nothing holds a copy of the plan),
//     and is a hit there afterwards.
//  3. The survivors' health monitors evict the dead owner from their
//     effective rings within the suspect window.
//  4. The owner comes back on the same address; the survivors re-admit it
//     and forward the key to it again.
func TestFleetHealthEvictionAndReadmit(t *testing.T) {
	const n = 3
	servers := make([]*Server, n)
	httpSrvs := make([]*http.Server, n)
	urls := make([]string, n)
	solves := make([]atomic.Int32, n)

	// The fleet runs on real net.Listeners (not httptest) because the dead
	// owner's port must be re-bindable for the re-admission half.
	for i := 0; i < n; i++ {
		i := i
		servers[i] = New(Config{
			HeartbeatInterval: 50 * time.Millisecond,
			SuspectAfter:      3,
			ReadmitAfter:      2,
			BreakerThreshold:  1,
			BreakerCooldown:   50 * time.Millisecond,
		})
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
	via, other := (owner+1)%n, (owner+2)%n
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

	// 3. Both survivors evict the dead owner from their effective rings.
	for _, i := range []int{via, other} {
		i := i
		waitFor(t, "eviction on replica "+strconv.Itoa(i), func() bool {
			_, members := servers[i].RingMembers()
			return len(members) == 2
		})
	}
	text := getMetricsText(t, urls[other])
	if !metricAtLeast(text, "chronosd_ring_evictions_total", 1) {
		t.Errorf("chronosd_ring_evictions_total = %q, want >= 1",
			metricValue(text, "chronosd_ring_evictions_total"))
	}
	failLine := "chronosd_ring_heartbeat_failures_total{peer=\"" + urls[owner] + "\"}"
	if !metricAtLeast(text, failLine, 1) {
		t.Errorf("%s = %q, want >= 1", failLine, metricValue(text, failLine))
	}

	// 4. Restart the owner on its old address: the survivors re-admit it and
	// forward the key to it again.
	ln, err := net.Listen("tcp", urls[owner][len("http://"):])
	if err != nil {
		t.Fatal(err)
	}
	restarted := &http.Server{Handler: servers[owner].Handler()}
	go restarted.Serve(ln)
	t.Cleanup(func() { restarted.Close() })

	for _, i := range []int{via, other} {
		i := i
		waitFor(t, "re-admission on replica "+strconv.Itoa(i), func() bool {
			_, members := servers[i].RingMembers()
			return len(members) == 3
		})
	}
	if text := getMetricsText(t, urls[other]); !metricAtLeast(text, "chronosd_ring_readmits_total", 1) {
		t.Errorf("chronosd_ring_readmits_total = %q, want >= 1",
			metricValue(text, "chronosd_ring_readmits_total"))
	}
	if by, _ := plan("plan after re-admission"); by != urls[owner] {
		t.Errorf("plan after re-admission served by %q, want the owner %q", by, urls[owner])
	}
	forwarded := "chronosd_ring_forwarded_total{peer=\"" + urls[owner] + "\"}"
	if text := getMetricsText(t, urls[via]); !metricAtLeast(text, forwarded, 2) {
		t.Errorf("%s = %q, want >= 2 (one forward before the outage, one after)", forwarded, metricValue(text, forwarded))
	}
}
