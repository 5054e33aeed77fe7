package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"chronos/api"
	"chronos/internal/hotjson"
	"chronos/internal/obs"
	"chronos/internal/race"
	"chronos/internal/tenant"
)

// These tests pin the cached plan, admit and batch-admit paths at ZERO heap
// allocations in the handler itself. They call the handlers
// directly — net/http's connection goroutine, its response bookkeeping, and
// the routing middleware are outside the claim — with a rewindable body and
// a reusable ResponseWriter so the harness allocates nothing either.

// rewindBody is an io.ReadCloser over a fixed payload that rewinds without
// allocating.
type rewindBody struct {
	data []byte
	off  int
}

func (b *rewindBody) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

func (b *rewindBody) Close() error { return nil }

// reuseRW is a ResponseWriter whose header map persists across requests, the
// way a real keep-alive connection's does.
type reuseRW struct {
	h    http.Header
	code int
}

func (w *reuseRW) Header() http.Header         { return w.h }
func (w *reuseRW) WriteHeader(code int)        { w.code = code }
func (w *reuseRW) Write(p []byte) (int, error) { return len(p), nil }

// zeroAllocRequest builds the reusable request/writer pair for one handler.
func zeroAllocRequest(t testing.TB, path string, payload any) (*rewindBody, *http.Request, *reuseRW) {
	t.Helper()
	raw, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	body := &rewindBody{data: raw}
	req := httptest.NewRequest(http.MethodPost, path, body)
	return body, req, &reuseRW{h: make(http.Header, 4)}
}

// assertZeroAlloc warms the path once (cache fill, pool priming, header-map
// entries), then measures.
func assertZeroAlloc(t *testing.T, name string, body *rewindBody, w *reuseRW, serve func()) {
	t.Helper()
	if race.Enabled {
		t.Skip("race instrumentation allocates and defeats sync.Pool; alloc counts only hold without -race")
	}
	serve()
	if w.code != http.StatusOK {
		t.Fatalf("%s warmup: status = %d, want 200", name, w.code)
	}
	allocs := testing.AllocsPerRun(200, func() {
		body.off = 0
		w.code = 0
		serve()
	})
	if w.code != http.StatusOK {
		t.Fatalf("%s: status = %d, want 200", name, w.code)
	}
	if allocs != 0 {
		t.Errorf("%s: %g allocs/op on the cached path, want 0", name, allocs)
	}
}

func TestPlanHandlerCachedZeroAlloc(t *testing.T) {
	s := New(Config{})
	body, req, w := zeroAllocRequest(t, "/v1/plan",
		api.PlanRequest{Job: testJob(), Econ: testEcon()})
	assertZeroAlloc(t, "handlePlan", body, w, func() { s.handlePlan(w, req) })
	if hits, _, _ := s.CacheStats(); hits == 0 {
		t.Fatal("measured requests never hit the plan cache")
	}
}

func TestAdmitHandlerCachedZeroAlloc(t *testing.T) {
	reg, err := tenant.NewRegistry(map[string]tenant.Limits{
		"bench": {Budget: 1e18},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Tenants: reg})
	body, req, w := zeroAllocRequest(t, "/v1/admit",
		api.AdmitRequest{Tenant: "bench", Job: testJob(), Econ: testEcon()})
	assertZeroAlloc(t, "handleAdmit", body, w, func() { s.handleAdmit(w, req) })
	if hits, _, _ := s.CacheStats(); hits == 0 {
		t.Fatal("measured requests never hit the plan cache")
	}
}

// batch16 is the 16-job batch the batch pins admit: distinct shapes, so each
// job has its own plan cache cell.
func batch16() []api.AdmitBatchJob {
	batch := make([]api.AdmitBatchJob, 16)
	for i := range batch {
		batch[i].Job = testJob()
		batch[i].Job.Tasks = 5 + i
	}
	return batch
}

// TestAdmitBatchHandlerCachedZeroAlloc pins a warm 16-job batch at 0
// allocations twice: at an ample pool, where every job takes its cached
// optimum, and at a pool squeezed to 0.95x the sum of the optima, pinned
// there before every request, where the walk splits it over the jobs'
// cached frontiers.
func TestAdmitBatchHandlerCachedZeroAlloc(t *testing.T) {
	_, optima := batchOptima(t, batch16(), testEcon())
	for _, tc := range []struct {
		name  string
		level float64 // the pool level each request sees; 0 leaves the pool full
	}{{"ample", 0}, {"squeezed", 0.95 * optima}} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Tenants: testRegistry(t, "bench", 1e18)})
			pool := s.tenants.Load().Get("bench")
			body, req, w := zeroAllocRequest(t, "/v1/admit/batch",
				api.AdmitBatchRequest{Tenant: "bench", Jobs: batch16(), Econ: testEcon()})
			assertZeroAlloc(t, "handleAdmitBatch", body, w, func() {
				if tc.level > 0 {
					pool.SetLevel(tc.level)
				}
				s.handleAdmitBatch(w, req)
			})
			if hits, _, _ := s.CacheStats(); hits == 0 {
				t.Fatal("measured requests never hit the plan cache")
			}
			if tc.level > 0 {
				var got api.AdmitBatchResponse
				serveAdmit(t, s.handleAdmitBatch, pool, tc.level, "/v1/admit/batch",
					api.AdmitBatchRequest{Tenant: "bench", Jobs: batch16(), Econ: testEcon()}, &got)
				// The optima overrun the pool, so every admitted plan is the walk's.
				if got.Admitted == 0 {
					t.Error("squeezed batch admitted no job")
				}
			}
		})
	}
}

// TestHotBufDropsGrownBatchScratch: a hotBuf whose batch scratch grew on a
// 1,024-job batch leaves the pool, though its body stays far under the byte
// cap; one that served a 16-job batch goes back.
func TestHotBufDropsGrownBatchScratch(t *testing.T) {
	s := New(Config{Tenants: testRegistry(t, "bench", 1e18)})
	for _, tc := range []struct {
		jobs   int
		pooled bool
	}{{16, true}, {1024, false}} {
		raw := []byte(`{"tenant":"bench","jobs":[{}` + strings.Repeat(`,{}`, tc.jobs-1) + `]}`)
		hb := &hotBuf{in: raw}
		if err := hotjson.DecodeAdmitBatchRequest(hb.in, &hb.batchReq, s); err != nil {
			t.Fatal(err)
		}
		hb.admitScratch(len(hb.batchReq.Jobs))
		if pooled := putHotBuf(hb); pooled != tc.pooled {
			t.Errorf("%d jobs (a %d-byte body): pooled = %v, want %v", tc.jobs, len(raw), pooled, tc.pooled)
		}
	}
}

// TestPlanHandlerColdAllocs pins the miss path at exactly 0 allocations per
// /v1/plan: the solve works on the stack and the cache copies the key into a
// slot it reuses. Every request carries a distinct deadline from a grid four
// times the cache, so each one runs the full three-strategy solve and evicts
// an entry that will not come around again in time. The flushing run empties
// the cache every 32 requests, as a SIGHUP tenant reload does: refilling it
// must not allocate either.
func TestPlanHandlerColdAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates and defeats sync.Pool; alloc counts only hold without -race")
	}
	for _, flushEvery := range []int{0, 32} {
		t.Run(fmt.Sprintf("flush every %d", flushEvery), func(t *testing.T) {
			s := New(Config{CacheCapacity: 64})
			const grid = 256
			bodies := make([]*rewindBody, grid)
			reqs := make([]*http.Request, grid)
			var w *reuseRW
			for i := range bodies {
				job := testJob()
				job.Deadline = 100 + float64(i)*0.25
				bodies[i], reqs[i], w = zeroAllocRequest(t, "/v1/plan", api.PlanRequest{Job: job, Econ: testEcon()})
			}
			i := 0
			serve := func() {
				if flushEvery > 0 && i%flushEvery == 0 {
					s.FlushCache()
				}
				bodies[i%grid].off = 0
				s.handlePlan(w, reqs[i%grid])
				i++
			}
			for i < grid { // one lap: pool priming, header-map entries, shards at capacity
				serve()
			}
			allocs := testing.AllocsPerRun(2*grid, serve)
			if w.code != http.StatusOK {
				t.Fatalf("status = %d, want 200", w.code)
			}
			if _, misses, _ := s.CacheStats(); misses < uint64(i) {
				t.Fatalf("only %d cache misses over %d requests", misses, i)
			}
			if allocs != 0 {
				t.Errorf("%g allocs per cold plan, want exactly 0", allocs)
			}
		})
	}
}

// TestRouteEnvelopeAlloc pins what route adds around a handler that does
// nothing, through the mux and with chronosd's own log handler on: a minted
// trace ID and the header value that stamps it, and http.MaxBytesReader's
// wrapper when the body's length is unknown. An honored inbound ID costs the
// header value alone. The recorder, the trace and its snapshot come from one
// pooled object; the histograms, the trace ring and the request line add
// nothing. BenchmarkRouteEnvelope times the first row.
func TestRouteEnvelopeAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates and defeats sync.Pool; alloc counts only hold without -race")
	}
	s := New(Config{Logger: slog.New(obs.NewHandler(io.Discard, slog.LevelInfo))})
	defer s.Close()
	s.route("POST /test/noop", "/test/noop", func(http.ResponseWriter, *http.Request) {})
	h := s.Handler()
	for _, tc := range []struct {
		name     string
		declared bool   // the request declares its body's length
		traceID  string // the inbound trace ID, "" to mint one
		want     float64
	}{
		{"minted ID, unknown length", false, "", 3},
		{"minted ID, declared length", true, "", 2},
		{"honored ID, declared length", true, "caller-chosen.id-42", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body, req, w := zeroAllocRequest(t, "/test/noop", api.PlanRequest{Job: testJob(), Econ: testEcon()})
			if tc.declared {
				req.ContentLength = int64(len(body.data))
			}
			if tc.traceID != "" {
				req.Header.Set(obs.TraceHeader, tc.traceID)
			}
			serve := func() {
				body.off, req.Body = 0, body
				h.ServeHTTP(w, req)
			}
			serve()
			allocs := testing.AllocsPerRun(200, serve)
			if got := w.h.Get(obs.TraceHeader); tc.traceID != "" && got != tc.traceID {
				t.Errorf("trace header %q, want the honored %q", got, tc.traceID)
			}
			if allocs != tc.want {
				t.Errorf("%g allocs per request around a no-op handler, want exactly %g", allocs, tc.want)
			}
		})
	}
}

// TestServingStackAllocCeilings holds the three admission rows the retired
// BENCH_N pipeline tracked to the allocation counts it last recorded. Unlike
// the pins above these cross the full stack — routing, middleware, trace,
// a fresh httptest request and recorder per call — so the figures are
// ceilings, not exact pins: a Go release may move net/http's share. The
// batch row fell from 92 to 85 when its plan keys went into one buffer sized
// once from their fixed lengths, and from 85 to 28, the single admit's
// count, when hotjson took over its body and its scratch joined the pooled
// hotBuf: what is left is net/http's and the middleware's. The logged row has no figure of its own: on chronosd's log handler a cached
// plan may allocate nothing its unlogged twin does not.
func TestServingStackAllocCeilings(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates and defeats sync.Pool; alloc counts only hold without -race")
	}
	deep := func() *tenant.Registry { return testRegistry(t, "bench", 1e18) }
	store, err := tenant.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	admit := api.AdmitRequest{Tenant: "bench", Job: testJob(), Econ: testEcon()}
	for _, tc := range []struct {
		name    string
		cfg     Config
		path    string
		payload any
		ceiling float64
	}{
		{"admit batch of 16", Config{Tenants: deep()}, "/v1/admit/batch",
			api.AdmitBatchRequest{Tenant: "bench", Jobs: batch16(), Econ: testEcon()}, 28},
		{"escrowed admit", Config{Tenants: deep(), Escrow: true}, "/v1/admit", admit, 29},
		{"escrowed admit with WAL", Config{Tenants: deep(), Escrow: true, Store: store}, "/v1/admit", admit, 31},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(tc.cfg)
			defer s.Close()
			h := s.Handler()
			raw, err := json.Marshal(tc.payload)
			if err != nil {
				t.Fatal(err)
			}
			serve := func() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(raw)))
				if rec.Code != http.StatusOK {
					t.Fatalf("status = %d: %s", rec.Code, rec.Body)
				}
			}
			serve() // warm the plan cache
			allocs := testing.AllocsPerRun(200, serve)
			t.Logf("%g allocs per request", allocs)
			if allocs > tc.ceiling {
				t.Errorf("%g allocs per request, ceiling %g", allocs, tc.ceiling)
			}
		})
	}
	t.Run("logged cached plan", func(t *testing.T) {
		raw, err := json.Marshal(api.PlanRequest{Job: testJob(), Econ: testEcon()})
		if err != nil {
			t.Fatal(err)
		}
		var allocs [2]float64
		for i, logger := range []*slog.Logger{nil, slog.New(obs.NewHandler(io.Discard, slog.LevelInfo))} {
			s := New(Config{Logger: logger})
			defer s.Close()
			h := s.Handler()
			serve := func() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(raw)))
				if rec.Code != http.StatusOK {
					t.Fatalf("status = %d: %s", rec.Code, rec.Body)
				}
			}
			serve() // warm the plan cache and the line pool
			allocs[i] = testing.AllocsPerRun(200, serve)
		}
		if allocs[1] > allocs[0] {
			t.Errorf("%g allocs per logged cached plan, %g unlogged: the request line must add none", allocs[1], allocs[0])
		}
	})
}
