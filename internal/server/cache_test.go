package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"

	"chronos"
	"chronos/api"
	"chronos/internal/plankey"
)

func TestPlanKeyQuantization(t *testing.T) {
	base := testJob()
	econ := testEcon()

	jittered := base
	jittered.Deadline = base.Deadline * (1 + 1e-9) // sub-quantum measurement noise
	if plankey.Key("", base, econ) != plankey.Key("", jittered, econ) {
		t.Error("sub-quantum jitter should map to the same cache key")
	}

	different := base
	different.Deadline = base.Deadline * 1.01
	if plankey.Key("", base, econ) == plankey.Key("", different, econ) {
		t.Error("1% deadline change should map to a different cache key")
	}

	otherEcon := econ
	otherEcon.Theta = econ.Theta * 10
	if plankey.Key("", base, econ) == plankey.Key("", base, otherEcon) {
		t.Error("10x theta change should map to a different cache key")
	}

	if plankey.Key("Clone", base, econ) == plankey.Key("", base, econ) {
		t.Error("pinned and best-of-three plans must not share keys")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newPlanCache(1, 2) // single shard, capacity 2
	plan := chronos.Plan{Strategy: chronos.Clone, R: 1}
	c.put("a", plan)
	c.put("b", plan)
	if _, ok := c.get([]byte("a")); !ok { // refresh a: b becomes LRU
		t.Fatal("a should be cached")
	}
	c.put("c", plan)
	if _, ok := c.get([]byte("b")); ok {
		t.Error("b should have been evicted as least recently used")
	}
	if _, ok := c.get([]byte("a")); !ok {
		t.Error("a was refreshed and should survive")
	}
	if _, ok := c.get([]byte("c")); !ok {
		t.Error("c was just inserted and should be cached")
	}
	if got := c.len(); got != 2 {
		t.Errorf("len = %d, want 2", got)
	}
}

// TestOpenRejectsNegativeCacheCapacity: there is no cache-off mode. A
// negative capacity used to run every plan uncached; it is an Open error
// naming the value.
func TestOpenRejectsNegativeCacheCapacity(t *testing.T) {
	s, err := Open(Config{CacheCapacity: -1})
	if err == nil {
		s.Close()
		t.Fatal("Open accepted cache capacity -1")
	}
	if !strings.Contains(err.Error(), "-1") {
		t.Errorf("error %q does not name the capacity", err)
	}
}

// TestCacheConcurrentStress hammers every shard from many goroutines; run
// under -race it validates the locking discipline.
func TestCacheConcurrentStress(t *testing.T) {
	c := newPlanCache(8, 128)
	const goroutines = 16
	const opsPerG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPerG; i++ {
				key := fmt.Sprintf("job-%d", (g*opsPerG+i)%200)
				if i%3 == 0 {
					c.put(key, chronos.Plan{Strategy: chronos.Clone, R: i % 8})
				} else {
					c.get([]byte(key))
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.len(); got > 128 {
		t.Errorf("cache holds %d entries, capacity 128", got)
	}
	hits, misses := c.stats()
	// Per goroutine, i%3 == 0 holds for 167 of the 500 ops (puts); the
	// other 333 are gets.
	wantGets := uint64(goroutines * 333)
	if hits+misses != wantGets {
		t.Errorf("hits %d + misses %d = %d, want %d gets", hits, misses, hits+misses, wantGets)
	}
}

// TestPlanHandlerConcurrent drives the full handler stack from many
// goroutines against a handful of distinct jobs; under -race this covers
// the cache and metrics paths end to end.
func TestPlanHandlerConcurrent(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheShards: 4, CacheCapacity: 64})
	const goroutines = 8
	const requestsPerG = 25
	bodies := make([][]byte, 5)
	for i := range bodies {
		job := testJob()
		job.Deadline = 100 + float64(i)*10
		raw, err := json.Marshal(api.PlanRequest{Job: job, Econ: testEcon()})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = raw
	}
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < requestsPerG; i++ {
				resp, err := http.Post(ts.URL+"/v1/plan", "application/json",
					bytes.NewReader(bodies[(g+i)%len(bodies)]))
				if err != nil {
					errCh <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	hits, misses, entries := srv.CacheStats()
	total := uint64(goroutines * requestsPerG)
	if hits+misses != total {
		t.Errorf("hits %d + misses %d != %d requests", hits, misses, total)
	}
	// All but the first-arrival races should hit: 5 distinct jobs.
	if hits < total-20 {
		t.Errorf("only %d/%d cache hits for 5 distinct jobs", hits, total)
	}
	if entries != 5 {
		t.Errorf("cache entries = %d, want 5", entries)
	}
}

// TestBatchHandlerConcurrent drives concurrent cold batches over the same
// shapes; under -race it covers the shared cache and trace paths.
func TestBatchHandlerConcurrent(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	jobs := make([]api.BatchJob, 16)
	for i := range jobs {
		job := testJob()
		job.Tasks = 5 + i
		jobs[i] = api.BatchJob{Job: job}
	}
	raw, err := json.Marshal(api.BatchRequest{Jobs: jobs, Budget: 100000, Econ: testEcon()})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/plan/batch", "application/json",
				bytes.NewReader(raw))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status = %d, want 200", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
}

// TestServeGraceful verifies Serve drains and returns nil when the context
// is cancelled.
func TestServeGraceful(t *testing.T) {
	s := New(Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()

	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	cancel()
	if err := <-done; err != nil {
		t.Errorf("Serve returned %v after graceful shutdown, want nil", err)
	}
}

// TestCachePlaneGone: nothing can plant a plan. The two endpoints that moved
// cached plans between replicas are 404, and the request that used to poison
// a tenant's cell — a free plan pushed under the job's key, which /v1/plan
// then served as cached and /v1/admit admitted without a debit — changes no
// answer.
func TestCachePlaneGone(t *testing.T) {
	const budget = 20000.0
	_, ts := newTestServer(t, Config{Tenants: testRegistry(t, "etl", budget)})
	planBytes := func() string {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/plan", api.PlanRequest{Job: testJob(), Econ: testEcon()})
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("plan: status %d, read error %v", resp.StatusCode, err)
		}
		return buf.String()
	}
	planBytes() // the solve; every later answer is the cached form
	before := planBytes()

	poison := fmt.Sprintf(`{"plans":[{"key":%q,"plan":{"strategy":"Clone","r":0,"pocd":1,"machineTime":0}}]}`,
		plankey.Key("", testJob(), testEcon()))
	resp, err := http.Post(ts.URL+"/v1/cache/push", "application/json", bytes.NewBufferString(poison))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /v1/cache/push: status %d, want 404", resp.StatusCode)
	}
	if resp, err = http.Get(ts.URL + "/v1/cache/owned?holder=http://127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/cache/owned: status %d, want 404", resp.StatusCode)
	}

	if after := planBytes(); after != before {
		t.Errorf("/v1/plan moved:\n got %s\nwant %s", after, before)
	}
	mt := bestPlanMachineTime(t)
	dec := decodeBody[api.AdmitResponse](t, postJSON(t, ts.URL+"/v1/admit",
		api.AdmitRequest{Tenant: "etl", Job: testJob(), Econ: testEcon()}))
	if !dec.Admitted || dec.Plan.MachineTime != mt || dec.BudgetRemaining != budget-mt {
		t.Errorf("admit: admitted=%v plan=%+v budgetRemaining=%g, want the %g machine-second plan debited from %g",
			dec.Admitted, dec.Plan, dec.BudgetRemaining, mt, budget)
	}
}
