package server

import (
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chronos"
	"chronos/api"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSingleflightCollapsesColdMisses pins the miss-collapse contract: N
// concurrent cold requests for one plan key run exactly one solve, every
// response carries the identical plan, and the other N-1 requests are
// accounted as waiters. Run under -race this also exercises the
// join/complete synchronization.
func TestSingleflightCollapsesColdMisses(t *testing.T) {
	const n = 16
	srv, ts := newTestServer(t, Config{})

	var solves atomic.Int64
	release := make(chan struct{})
	srv.solveHook = func(string) {
		solves.Add(1)
		// Park the leader so every other request must join as a waiter; the
		// cache stays cold until the test releases the gate.
		<-release
	}

	req := api.PlanRequest{Job: testJob(), Econ: testEcon()}
	plans := make([]chronos.Plan, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/v1/plan", req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status = %d, want 200", i, resp.StatusCode)
				resp.Body.Close()
				return
			}
			plans[i] = decodeBody[api.PlanResponse](t, resp).Plan
		}(i)
	}

	// All n requests miss the cold cache: one becomes the leader (blocked in
	// the hook), the rest must register as waiters before we open the gate.
	waitFor(t, "all waiters to join", func() bool {
		return srv.metrics.flightWaiters.Value() == n-1
	})
	close(release)
	wg.Wait()

	if got := solves.Load(); got != 1 {
		t.Fatalf("solves = %d, want exactly 1 for %d concurrent cold requests", got, n)
	}
	for i := 1; i < n; i++ {
		if plans[i] != plans[0] {
			t.Errorf("plan %d = %+v, differs from leader's %+v", i, plans[i], plans[0])
		}
	}
	if got := srv.metrics.flightLeaders.Value(); got != 1 {
		t.Errorf("flightLeaders = %d, want 1", got)
	}
	if got := srv.metrics.flightWaiters.Value(); got != n-1 {
		t.Errorf("flightWaiters = %d, want %d", got, n-1)
	}

	// The leader populated the cache before leaving the flight table, so a
	// late arrival is a plain hit: no new leader, no new waiter.
	late := decodeBody[api.PlanResponse](t, postJSON(t, ts.URL+"/v1/plan", req))
	if !late.Cached {
		t.Error("post-flight request should be served from cache")
	}
	if got := srv.metrics.flightLeaders.Value(); got != 1 {
		t.Errorf("flightLeaders after cache hit = %d, want still 1", got)
	}
}

// TestSingleflightEvictionStorm drives K distinct plan keys with M concurrent
// requests each through a single-entry cache, so every put evicts the
// previous key. The flight table, not the LRU, is what bounds duplicate
// work: exactly K solves run.
func TestSingleflightEvictionStorm(t *testing.T) {
	const (
		keys       = 5
		perKey     = 6
		wantSolves = keys
	)
	srv, ts := newTestServer(t, Config{CacheShards: 1, CacheCapacity: 1})

	var solves atomic.Int64
	release := make(chan struct{})
	srv.solveHook = func(string) {
		solves.Add(1)
		<-release
	}

	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		job := testJob()
		job.Tasks = 10 + k // distinct quantized plan keys
		req := api.PlanRequest{Job: job, Econ: testEcon()}
		for i := 0; i < perKey; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp := postJSON(t, ts.URL+"/v1/plan", req)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status = %d, want 200", resp.StatusCode)
				}
				resp.Body.Close()
			}()
		}
	}

	// One leader per key parks in the hook; everyone else becomes a waiter.
	waitFor(t, "leaders and waiters to assemble", func() bool {
		return solves.Load() == wantSolves &&
			srv.metrics.flightWaiters.Value() == keys*(perKey-1)
	})
	close(release)
	wg.Wait()

	if got := solves.Load(); got != wantSolves {
		t.Fatalf("solves = %d, want %d (one per distinct key)", got, wantSolves)
	}
	if got := srv.metrics.flightLeaders.Value(); got != wantSolves {
		t.Errorf("flightLeaders = %d, want %d", got, wantSolves)
	}
	if entries := srv.cache.len(); entries > 1 {
		t.Errorf("cache entries = %d, want <= 1 under a single-entry cache", entries)
	}
}
