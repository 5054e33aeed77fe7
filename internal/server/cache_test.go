package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"chronos"
	"chronos/api"
	"chronos/internal/hotjson"
	"chronos/internal/plankey"
	"chronos/internal/ring"
)

// TestPlanBytesIndependentOfFillOrder sends two bodies that differ only past
// the deadline's sixth significant digit, D = 100 and D = 100.00004, to two
// fresh servers in opposite orders, on /v1/plan and on /v1/admit against a
// tenant so ample no debit here moves its level. Each body must read the same
// bytes from both servers: a cached plan depends only on its key, never on
// which request filled the cell.
func TestPlanBytesIndependentOfFillOrder(t *testing.T) {
	a, b := testJob(), testJob()
	b.Deadline = 100.00004
	routes := []struct {
		path string
		body func(chronos.JobParams) any
	}{
		{"/v1/plan", func(j chronos.JobParams) any { return api.PlanRequest{Job: j, Econ: testEcon()} }},
		{"/v1/admit", func(j chronos.JobParams) any {
			return api.AdmitRequest{Tenant: "ample", Job: j, Econ: testEcon()}
		}},
	}
	for _, route := range routes {
		t.Run(strings.TrimPrefix(route.path, "/v1/"), func(t *testing.T) {
			var answers [2]map[float64]string
			for i, order := range [2][2]chronos.JobParams{{a, b}, {b, a}} {
				_, ts := newTestServer(t, Config{Tenants: testRegistry(t, "ample", 1e30)})
				answers[i] = map[float64]string{}
				for _, job := range order {
					resp := postJSON(t, ts.URL+route.path, route.body(job))
					raw, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						t.Fatalf("deadline %v: status %d, err %v: %s", job.Deadline, resp.StatusCode, err, raw)
					}
					answers[i][job.Deadline] = wireTraceID.ReplaceAllString(string(raw), `"traceId":""`)
				}
			}
			for _, d := range []float64{a.Deadline, b.Deadline} {
				if answers[0][d] != answers[1][d] {
					t.Errorf("deadline %v answered by fill order:\nA first: %s\nB first: %s", d, answers[0][d], answers[1][d])
				}
			}
		})
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newPlanCache(1, 2) // single shard, capacity 2
	plan := chronos.Plan{Strategy: chronos.Clone, R: 1}
	c.put([]byte("a"), plan, nil)
	c.put([]byte("b"), plan, nil)
	if _, _, ok := c.get([]byte("a"), nil); !ok { // refresh a: b becomes LRU
		t.Fatal("a should be cached")
	}
	c.put([]byte("c"), plan, nil)
	if _, _, ok := c.get([]byte("b"), nil); ok {
		t.Error("b should have been evicted as least recently used")
	}
	if _, _, ok := c.get([]byte("a"), nil); !ok {
		t.Error("a was refreshed and should survive")
	}
	if _, _, ok := c.get([]byte("c"), nil); !ok {
		t.Error("c was just inserted and should be cached")
	}
	if got := c.len(); got != 2 {
		t.Errorf("len = %d, want 2", got)
	}
}

// lruRef is the naive LRU TestPlanCacheMatchesReferenceLRU holds the cache
// to: one slice in recency order, most recently used first.
type lruRef struct {
	capacity int
	entries  []lruRefEntry
}

type lruRefEntry struct {
	key      string
	plan     chronos.Plan
	frontier *chronos.BudgetFrontier
}

func (r *lruRef) find(key string) int {
	for i := range r.entries {
		if r.entries[i].key == key {
			return i
		}
	}
	return -1
}

// touch moves entry i to the front and returns it.
func (r *lruRef) touch(i int) *lruRefEntry {
	e := r.entries[i]
	copy(r.entries[1:i+1], r.entries[:i])
	r.entries[0] = e
	return &r.entries[0]
}

func (r *lruRef) put(key string, plan chronos.Plan) {
	i := r.find(key)
	if i < 0 {
		if len(r.entries) == r.capacity {
			r.entries = r.entries[:len(r.entries)-1]
		}
		r.entries = append(r.entries, lruRefEntry{key: key})
		i = len(r.entries) - 1
	}
	r.touch(i).plan = plan
}

// TestPlanCacheMatchesReferenceLRU runs seeded random sequences of every
// cache operation on one shard against lruRef. Keys are drawn from three
// times the capacity, so hits, refreshes and evictions all happen; after
// every operation hit or miss, the plan, the frontier pointer and len agree.
func TestPlanCacheMatchesReferenceLRU(t *testing.T) {
	for _, capacity := range []int{1, 3, 17} {
		for seed := int64(1); seed <= 4; seed++ {
			c := newPlanCache(1, capacity)
			ref := &lruRef{capacity: capacity}
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 5000; step++ {
				key := fmt.Sprintf("job-%d", rng.Intn(3*capacity))
				i := ref.find(key)
				fail := func(format string, args ...any) {
					t.Fatalf("capacity %d seed %d step %d key %s: %s", capacity, seed, step, key, fmt.Sprintf(format, args...))
				}
				switch op := rng.Intn(100); {
				case op < 40:
					plan, _, ok := c.get([]byte(key), nil)
					if ok != (i >= 0) {
						fail("get hit = %v, reference %v", ok, i >= 0)
					}
					if ok {
						if want := ref.touch(i).plan; plan != want {
							fail("get = %+v, reference %+v", plan, want)
						}
					}
				case op < 75:
					plan := chronos.Plan{Strategy: chronos.Clone, R: step}
					c.put([]byte(key), plan, nil)
					ref.put(key, plan)
				case op < 85:
					f := new(chronos.BudgetFrontier)
					c.setFrontier([]byte(key), f)
					if i >= 0 {
						ref.entries[i].frontier = f
					}
				case op < 99:
					var want *chronos.BudgetFrontier
					if i >= 0 {
						want = ref.entries[i].frontier
					}
					if got := c.frontier([]byte(key)); got != want {
						fail("frontier = %p, reference %p", got, want)
					}
				default:
					c.flush()
					ref.entries = ref.entries[:0]
				}
				if got, want := c.len(), len(ref.entries); got != want {
					fail("len = %d, reference %d", got, want)
				}
			}
		}
	}
}

// TestKeyHashSpreadsPlanKeys checks that plan keys of jobs differing only in
// a few round-valued fields — whose words differ only in their high bits —
// still spread evenly over the 16 shards the low bits of ring.Hash pick.
func TestKeyHashSpreadsPlanKeys(t *testing.T) {
	const shards, n = 16, 16000
	var count [shards]int
	for i := 0; i < n; i++ {
		job := testJob()
		job.Tasks = 1 + i%40
		job.Deadline = float64(100 + i/40)
		count[ring.Hash(plankey.Key("", job, testEcon()))%shards]++
	}
	for s, c := range count {
		if c < n/shards*9/10 || c > n/shards*11/10 {
			t.Errorf("shard %d holds %d of %d keys, want %d ± 10 %%", s, c, n, n/shards)
		}
	}
}

// TestRenderedPlanBytes holds what /v1/plan serves from a cache slot's
// rendered bytes to hotjson.AppendPlanResponse and json.Marshal of the plan
// the slot holds, on plans whose floats jsonfloat writes in exponent form,
// and checks that no change to the slot serves its previous bytes: a re-put
// with a different plan by a path that renders nothing, an eviction that
// reuses the slot for another key, and FlushCache.
func TestRenderedPlanBytes(t *testing.T) {
	s := New(Config{CacheCapacity: cacheShards}) // one slot per shard
	defer s.Close()
	h := s.Handler()
	key := func(job chronos.JobParams) []byte { return plankey.AppendKey(nil, "", job, testEcon()) }
	jobA, jobB := testJob(), testJob()
	keyA := key(jobA)
	// jobB's key falls in keyA's shard, so putting one evicts the other.
	for jobB.Deadline++; ring.Hash(key(jobB))%cacheShards != ring.Hash(keyA)%cacheShards; jobB.Deadline++ {
	}
	serve := func(step string, job chronos.JobParams, plan chronos.Plan, cached bool) {
		t.Helper()
		raw, err := json.Marshal(api.PlanRequest{Job: job, Econ: testEcon()})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(raw)))
		want := api.PlanResponse{Plan: plan, Cached: cached}
		hot, err := hotjson.AppendPlanResponse(nil, &want)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(hot, ref) {
			t.Fatalf("%s: hotjson %s, encoding/json %s", step, hot, ref)
		}
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), hot) {
			t.Errorf("%s: served %d %s, want %s", step, rec.Code, rec.Body, hot)
		}
		if !cached {
			return
		}
		sh, h := s.cache.lock(key(job))
		defer sh.mu.Unlock()
		if i := sh.find(h, key(job)); i < 0 || !bytes.Equal(sh.slots[i].rendered, hot[len(hotjson.PlanResponseHead):len(hot)-len(`,"cached":true}`)]) {
			t.Errorf("%s: the slot does not hold the plan's rendered bytes", step)
		}
	}
	exp1 := chronos.Plan{Strategy: chronos.Clone, R: 2, PoCD: 1e-7, MachineTime: 1.5e21, Cost: 6.123e-9, Utility: -4.2e-9}
	exp2 := chronos.Plan{Strategy: chronos.SpeculativeRestart, R: 3, PoCD: 0.999, MachineTime: 2.5e-7, Cost: 1e22, Utility: -math.MaxFloat64}
	solved, err := chronos.OptimizeBest(jobA, testEcon())
	if err != nil {
		t.Fatal(err)
	}

	s.cache.put(keyA, exp1, nil) // as the admit path does: no bytes
	serve("first hit renders", jobA, exp1, true)
	serve("second hit copies", jobA, exp1, true)
	s.cache.put(keyA, exp2, nil)
	serve("re-put with another plan", jobA, exp2, true)
	s.cache.put(key(jobB), exp1, nil)
	serve("eviction reuses the slot", jobB, exp1, true)
	serve("miss solves and renders", jobA, solved, false)
	serve("hit after the miss", jobA, solved, true)
	s.FlushCache()
	s.cache.put(keyA, exp2, nil)
	serve("put after a flush", jobA, exp2, true)
	s.FlushCache()
	serve("miss after a flush", jobA, solved, false)
	serve("hit after the flush", jobA, solved, true)
}

// TestPlanCacheHashCollision plants key a's entry under key b's hash, the
// state two keys with one 64-bit hash leave behind, and checks that b never
// gets a's plan or table: b misses, b's put takes the slot in place with a
// nil frontier, and a misses after that.
func TestPlanCacheHashCollision(t *testing.T) {
	a, b := []byte("a"), []byte("b")
	planA := chronos.Plan{Strategy: chronos.Clone, R: 1}
	planB := chronos.Plan{Strategy: chronos.SpeculativeResume, R: 2}
	tableA := new(chronos.BudgetFrontier)
	c := newPlanCache(1, 4)
	c.put(a, planA, nil)
	c.setFrontier(a, tableA)
	s := &c.shards[0]
	i := s.index[ring.Hash(a)]
	delete(s.index, ring.Hash(a))
	s.index[ring.Hash(b)] = i
	s.slots[i].hash = ring.Hash(b)

	if plan, _, ok := c.get(b, nil); ok {
		t.Errorf("get(b) hit with %+v from a's slot", plan)
	}
	if f := c.frontier(b); f != nil {
		t.Error("frontier(b) returned a's table")
	}
	c.setFrontier(b, new(chronos.BudgetFrontier))
	if s.slots[i].frontier != tableA {
		t.Error("setFrontier(b) replaced a's table")
	}

	c.put(b, planB, nil)
	if n := c.len(); n != 1 {
		t.Errorf("len = %d after b took a's slot, want 1", n)
	}
	if f := c.frontier(b); f != nil {
		t.Error("b inherited a's table")
	}
	if plan, _, ok := c.get(b, nil); !ok || plan != planB {
		t.Errorf("get(b) = %+v, %v; want %+v, true", plan, ok, planB)
	}
	if plan, _, ok := c.get(a, nil); ok {
		t.Errorf("get(a) hit with %+v after b took its slot", plan)
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
					c.put([]byte(key), chronos.Plan{Strategy: chronos.Clone, R: i % 8}, nil)
				} else {
					c.get([]byte(key), nil)
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
	srv, ts := newTestServer(t, Config{CacheCapacity: 64})
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
