package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"chronos"
	"chronos/api"
	"chronos/internal/obs"
	"chronos/internal/plankey"
	"chronos/internal/ring"
)

// The serving benchmarks with no twin in bench/ (whose traced run reports
// the plan and admit handlers as server.*_ns and server.*_allocs, and the
// forward hop only as a share of a mixed workload). Each runs once per
// `make bench` as a smoke; none gates a timing.

// BenchmarkBatchHandler measures a 64-job shared-budget allocation with
// best-of-three selection from a warm plan cache (20 distinct shapes, all
// hits after the first iteration).
func BenchmarkBatchHandler(b *testing.B) {
	s := New(Config{})
	h := s.Handler()
	jobs := make([]api.BatchJob, 64)
	for i := range jobs {
		job := testJob()
		job.Tasks = 5 + i%20
		jobs[i] = api.BatchJob{Job: job}
	}
	raw, err := json.Marshal(api.BatchRequest{Jobs: jobs, Budget: 500000, Econ: testEcon()})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/plan/batch", bytes.NewReader(raw))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status = %d: %s", rec.Code, rec.Body)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(jobs))/b.Elapsed().Seconds(), "plans/s")
}

// BenchmarkForwardHop is one forwarded cached plan over real sockets: a raw
// persistent client posts to a replica a plan whose key the other replica
// owns, so an iteration is the forwarder's server pass, peerState.call, and
// the owner's server pass. Connection reuse is asserted as a count: however
// many forwards ran, the forwarder dialed its peer once.
func BenchmarkForwardHop(b *testing.B) {
	var servers [2]*Server
	var urls [2]string
	for i := range servers {
		servers[i] = New(Config{})
		defer servers[i].Close()
		ts := httptest.NewServer(servers[i].Handler())
		defer ts.Close()
		urls[i] = ts.URL
	}
	for i, s := range servers {
		if err := s.SetRing(ring.Membership{Self: urls[i], Peers: urls[:]}); err != nil {
			b.Fatal(err)
		}
	}
	raw, err := json.Marshal(reqOwnedBy(b, servers[0], urls[1]))
	if err != nil {
		b.Fatal(err)
	}
	conn, err := net.Dial("tcp", strings.TrimPrefix(urls[0], "http://"))
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	req := []byte(fmt.Sprintf("POST /v1/plan HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(raw), raw))
	post := func() {
		if _, err := conn.Write(req); err != nil {
			b.Fatal(err)
		}
		ans, _, err := readPeerAnswer(br, urls[1])
		if err != nil || ans.status != http.StatusOK || ans.servedBy != urls[1] {
			b.Fatalf("forwarded plan: status %d served by %q: %s (%v)", ans.status, ans.servedBy, ans.body, err)
		}
	}
	post() // the owner solves and caches; the forwarder dials
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
	b.StopTimer()
	forwards, dials := vecValue(&servers[0].metrics.ringForwards, urls[1]), vecValue(&servers[0].metrics.ringDials, urls[1])
	if forwards != uint64(b.N)+1 || dials != 1 {
		b.Fatalf("%d forwards over %d dials, want %d over exactly 1", forwards, dials, b.N+1)
	}
}

// BenchmarkRouteEnvelope is what route wraps around every handler, as one
// number: mux dispatch, MaxBytesReader (the body's length is unknown), trace
// mint and header stamp, the pooled routed writer and trace, the latency
// and stage histograms, the trace ring and the default request log line —
// around a handler that does nothing, with chronosd's own log handler on.
// TestRouteEnvelopeAlloc pins its allocations.
func BenchmarkRouteEnvelope(b *testing.B) {
	s := New(Config{Logger: slog.New(obs.NewHandler(io.Discard, slog.LevelInfo))})
	defer s.Close()
	s.route("POST /bench/noop", "/bench/noop", func(http.ResponseWriter, *http.Request) {})
	h := s.Handler()
	body, req, w := zeroAllocRequest(b, "/bench/noop", api.PlanRequest{Job: testJob(), Econ: testEcon()})
	h.ServeHTTP(w, req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Body = body // unwrap the last iteration's MaxBytesReader
		h.ServeHTTP(w, req)
	}
}

// BenchmarkPlanCache is the plan cache alone at its default size (16 shards,
// 4,096 plans) under real plan keys. hit gets 1,024 cached keys in turn, the
// plan_hot case; miss_evict is what a cold /v1/plan does to a full cache, a
// missing get and a put that evicts, cycling over four times the capacity so
// that no key comes around before it is evicted.
func BenchmarkPlanCache(b *testing.B) {
	const capacity = 4096
	keys := func(n int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			job := testJob()
			job.Deadline = 100 + float64(i)*0.25
			out[i] = plankey.AppendKey(nil, "", job, testEcon())
		}
		return out
	}
	plan := chronos.Plan{Strategy: chronos.Clone, R: 1}
	b.Run("hit", func(b *testing.B) {
		c := newPlanCache(cacheShards, capacity)
		hot := keys(1024)
		for _, k := range hot {
			c.put(k, plan, nil)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, ok := c.get(hot[i%len(hot)], nil); !ok {
				b.Fatal("miss on a cached key")
			}
		}
	})
	b.Run("miss_evict", func(b *testing.B) {
		c := newPlanCache(cacheShards, capacity)
		cold := keys(4 * capacity)
		for _, k := range cold { // fill every shard to capacity
			c.put(k, plan, nil)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := cold[i%len(cold)]
			if _, _, ok := c.get(k, nil); ok {
				b.Fatal("hit on a key evicted a lap ago")
			}
			c.put(k, plan, nil)
		}
	})
}
