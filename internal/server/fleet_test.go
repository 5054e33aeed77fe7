package server

import (
	"net"
	"net/http"
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

// TestFleetHealthEvictionReplicaReadAndHandoff is the tentpole acceptance
// scenario, run under -race:
//
//  1. A 3-replica fleet with heartbeat membership and replication factor 2
//     solves one plan; the owner asynchronously pushes the hot entry to the
//     key's first ring successor.
//  2. The owner's listener dies. A request for the key through the third
//     replica is served WARM from the successor's replica copy — no cold
//     solve — and counts as a ring replica read.
//  3. The survivors' health monitors evict the dead owner from their
//     effective rings within the suspect window.
//  4. The owner comes back on the same address; the survivors re-admit it,
//     and the successor hands the remapped hot entry back, so the owner
//     rejoins warm.
func TestFleetHealthEvictionReplicaReadAndHandoff(t *testing.T) {
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
			Replication:       2,
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
	totalSolves := func() int32 {
		var sum int32
		for i := range solves {
			sum += solves[i].Load()
		}
		return sum
	}

	// Locate the key's owner and first successor on the shared ring view.
	req := api.PlanRequest{Job: testJob(), Econ: testEcon()}
	key := plankey.Key("", req.Job, req.Econ)
	succ := servers[0].ringSt.Load().ring.Successors(key, 2)
	if len(succ) != 2 {
		t.Fatalf("Successors(key, 2) = %v", succ)
	}
	idxOf := func(url string) int {
		for i, u := range urls {
			if u == url {
				return i
			}
		}
		t.Fatalf("%q is not a fleet member", url)
		return -1
	}
	owner, backup := idxOf(succ[0]), idxOf(succ[1])
	other := 3 - owner - backup // the replica holding neither copy

	// 1. Solve through the non-owning, non-backup replica: the owner
	// computes and caches, then replicates the hot entry to the backup.
	resp := postJSON(t, urls[other]+"/v1/plan", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("initial plan: status = %d, want 200", resp.StatusCode)
	}
	if first := decodeBody[api.PlanResponse](t, resp); first.Cached {
		t.Fatal("first fleet request cannot be cached")
	}
	if got := totalSolves(); got != 1 {
		t.Fatalf("initial plan cost %d solves, want 1", got)
	}
	waitFor(t, "replica copy on the backup", func() bool {
		return servers[backup].cache.peek([]byte(key))
	})

	// 2. Kill the owner and immediately re-request the key through the
	// third replica: the forward walks owner (dead, breaker trips) then the
	// backup, which answers warm from its replica copy.
	if err := httpSrvs[owner].Close(); err != nil {
		t.Fatal(err)
	}
	servers[owner].FlushCache() // its in-process cache must not mask the handoff later
	resp = postJSON(t, urls[other]+"/v1/plan", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan with dead owner: status = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get(ServedByHeader); got != urls[backup] {
		t.Errorf("dead-owner plan served by %q, want backup %q", got, urls[backup])
	}
	warm := decodeBody[api.PlanResponse](t, resp)
	if !warm.Cached {
		t.Error("replica read must hit the backup's warm copy")
	}
	if got := totalSolves(); got != 1 {
		t.Errorf("owner death cost %d extra solves, want 0 (warm replica read)", got-1)
	}
	if text := getMetricsText(t, urls[other]); !metricAtLeast(text, "chronosd_ring_replica_reads_total", 1) {
		t.Errorf("chronosd_ring_replica_reads_total = %q on the forwarding replica, want >= 1",
			metricValue(text, "chronosd_ring_replica_reads_total"))
	}

	// 3. Both survivors evict the dead owner from their effective rings.
	for _, i := range []int{backup, other} {
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

	// 4. Restart the owner on its old address: the survivors re-admit it
	// and the backup hands the remapped hot entry back.
	ln, err := net.Listen("tcp", urls[owner][len("http://"):])
	if err != nil {
		t.Fatal(err)
	}
	restarted := &http.Server{Handler: servers[owner].Handler()}
	go restarted.Serve(ln)
	t.Cleanup(func() { restarted.Close() })

	for _, i := range []int{backup, other} {
		i := i
		waitFor(t, "re-admission on replica "+strconv.Itoa(i), func() bool {
			_, members := servers[i].RingMembers()
			return len(members) == 3
		})
	}
	waitFor(t, "warm handoff back to the owner", func() bool {
		return servers[owner].cache.peek([]byte(key))
	})
	text = getMetricsText(t, urls[other])
	if !metricAtLeast(text, "chronosd_ring_readmits_total", 1) {
		t.Errorf("chronosd_ring_readmits_total = %q, want >= 1",
			metricValue(text, "chronosd_ring_readmits_total"))
	}
	if bt := getMetricsText(t, urls[backup]); !metricAtLeast(bt, "chronosd_ring_handoff_entries_total", 1) {
		t.Errorf("chronosd_ring_handoff_entries_total = %q on the backup, want >= 1",
			metricValue(bt, "chronosd_ring_handoff_entries_total"))
	}

	// The whole death-and-rebirth cycle never re-solved the plan.
	if got := totalSolves(); got != 1 {
		t.Errorf("fleet performed %d solves across the cycle, want 1", got)
	}
}
