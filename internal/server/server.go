package server

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"chronos/internal/obs"
	"chronos/internal/ring"
	"chronos/internal/tenant"
)

// Server is one chronosd instance: HTTP handlers over the chronos planning
// core, a sharded plan cache, a hot-swappable tenant registry,
// rendezvous-hash plan-key sharding across a replica fleet, and
// Prometheus-style metrics.
type Server struct {
	cfg     Config
	cache   *planCache
	metrics *serverMetrics
	mux     *http.ServeMux
	tenants atomic.Pointer[tenant.Registry]
	// ringSt is the current fleet-membership view; nil disables sharding.
	// Swapped atomically by applyRing (SetRing on SIGHUP, and Close), which
	// ringMu serializes: a swap also closes the connections of the peers it
	// drops, and two interleaved swaps could close a kept peer's.
	ringSt atomic.Pointer[ringState]
	ringMu sync.Mutex
	// replaySem bounds concurrently running simulations; each /v1/replay
	// stream holds one slot.
	replaySem chan struct{}
	// traces retains finished request snapshots for GET /debug/traces;
	// reqLog emits the sampled structured request lines. Both tolerate
	// being unused (reqLog is nil without a configured logger).
	traces *obs.TraceRing
	reqLog *obs.Logger
	// ledger is the one debit path of the tenant pools this replica owns
	// (ledger.go). With a Store, compactLoop folds its WAL into snapshots
	// until compactStop closes, and closes compactDone when it returns.
	ledger                   *tenant.EscrowLedger
	compactStop, compactDone chan struct{}
	// solveHook, when set (tests), runs on every plan-cache miss just before
	// the solve — the hook point for counting real solves.
	solveHook func(key string)
	closeOnce sync.Once
}

// discardLogger backs logOp when no logger is configured, so subsystem code
// logs unconditionally without nil checks.
var discardLogger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 128}))

// logOp returns the operational (non-request) structured log target; never
// nil.
func (s *Server) logOp() *slog.Logger {
	if l := s.reqLog.Op(); l != nil {
		return l
	}
	return discardLogger
}

// New is Open for configurations that cannot fail — tests, examples,
// embedders without a data dir — and panics where Open would return an error.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(fmt.Sprintf("server.New: %v", err))
	}
	return s
}

// Open builds a server from cfg (zero fields take defaults). It fails on a
// negative cache capacity; on invalid ring membership (peers without a self
// URL), a startup misconfiguration that would otherwise silently disable
// sharding; and on a data dir the ledger cannot anchor its snapshot in: the
// WAL records that follow are deltas against that snapshot, so serving
// without it would restore wrong levels at the next boot.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.CacheCapacity < 0 {
		return nil, fmt.Errorf("cache capacity %d is negative", cfg.CacheCapacity)
	}
	s := &Server{
		cfg:       cfg,
		cache:     newPlanCache(cacheShards, cfg.CacheCapacity),
		metrics:   newServerMetrics(),
		replaySem: make(chan struct{}, cfg.MaxActiveReplays),
		traces:    obs.NewTraceRing(cfg.TraceRingSize),
		reqLog:    obs.FromSlog(cfg.Logger, cfg.LogSample),
	}
	if cfg.Tenants != nil {
		s.tenants.Store(cfg.Tenants)
	}
	if err := s.SetRing(ring.Membership{Self: cfg.Self, Peers: cfg.Peers}); err != nil {
		return nil, err
	}
	s.ledger = tenant.NewEscrowLedger(cfg.Tenants, cfg.Store)
	if cfg.Store != nil {
		// Fold the recovered snapshot+WAL state into the live pools, then
		// anchor it: WAL records are deltas against the latest snapshot, so
		// the restored absolute levels must be compacted before the first
		// post-boot append.
		s.ledger.Restore(cfg.Store.State())
		if err := s.ledger.Compact(); err != nil {
			return nil, fmt.Errorf("escrow anchor snapshot: %w", err)
		}
		s.compactStop, s.compactDone = make(chan struct{}), make(chan struct{})
		go s.compactLoop()
	}
	s.mux = http.NewServeMux()
	s.route("POST /v1/plan", "/v1/plan", s.handlePlan)
	s.route("POST /v1/plan/batch", "/v1/plan/batch", s.handleBatch)
	s.route("POST /v1/admit", "/v1/admit", s.handleAdmit)
	s.route("POST /v1/admit/batch", "/v1/admit/batch", s.handleAdmitBatch)
	s.route("GET /v1/tradeoff", "/v1/tradeoff", s.handleTradeoff)
	s.route("POST /v1/replay", "/v1/replay", s.handleReplay)
	s.route("GET /healthz", "/healthz", s.handleHealthz)
	s.route("GET /metrics", "/metrics", s.handleMetrics)
	// The slow-trace buffer is also reachable on the serving listener (it is
	// a cheap JSON GET); the pprof surface is only on DebugHandler, so
	// profiling never shares the serving listener. Registered outside
	// route(): inspecting traces should not itself mint traces.
	s.mux.Handle("GET /debug/traces", obs.TracesHandler(s.traces))
	return s, nil
}

// DebugHandler returns the debug surface chronosd serves on a separate
// -debug-addr listener: /debug/pprof/* plus /debug/traces.
func (s *Server) DebugHandler() http.Handler { return obs.DebugMux(s.traces) }

// Traces exposes the retained slow-trace ring (tests, embedders).
func (s *Server) Traces() *obs.TraceRing { return s.traces }

// Tenants returns the live tenant registry (nil when none is configured).
func (s *Server) Tenants() *tenant.Registry { return s.tenants.Load() }

// SetTenants swaps in a new tenant registry — chronosd calls this on SIGHUP
// after reloading the config file — and flushes the plan cache, so no plan
// computed under the previous tenant defaults outlives the config change.
// Carrying live ledger levels across the swap is the caller's choice via
// tenant.Registry.Rebase.
func (s *Server) SetTenants(reg *tenant.Registry) {
	s.tenants.Store(reg)
	s.ledger.Rebase(reg)
	s.FlushCache()
}

// Close stops the snapshot loop, compacts the ledger into a final snapshot
// (so the next boot replays nothing), and leaves the ring, which closes the
// idle peer connections. Safe to call more than once; a server without a
// Store or a ring closes as a no-op.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.compactStop != nil {
			close(s.compactStop)
			<-s.compactDone
			if err := s.ledger.Compact(); err != nil {
				s.logOp().Error("escrow final snapshot failed", "error", err.Error())
			}
		}
		s.applyRing("", nil)
	})
}

// FlushCache empties the plan cache.
func (s *Server) FlushCache() { s.cache.flush() }

// route registers pattern with the instrumentation middleware: request body
// capping, latency measurement, per-endpoint/status counting under the
// stable label name, and request-scoped tracing — every request gets a
// trace ID (honored from the inbound X-Chronosd-Trace-Id or minted here),
// stamped on the response, reachable by the handler through the routed
// writer (traceOf) for its stage spans, and finished into the slow-trace
// ring, the per-stage histograms, and the sampled structured request log.
//
// The writer, the trace and its snapshot are one pooled routedWriter, so
// the envelope allocates only a minted trace ID and the header value that
// stamps it. The body is capped by http.MaxBytesReader only when its length
// is unknown or over the cap: a declared length within it is already the
// limit net/http's body reader enforces.
func (s *Server) route(pattern, label string, h http.HandlerFunc) {
	em := s.metrics.endpoint(label)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil && (r.ContentLength < 0 || r.ContentLength > s.cfg.MaxBodyBytes) {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		rw := routedPool.Get().(*routedWriter)
		rw.ResponseWriter, rw.code, rw.wrote = w, http.StatusOK, false
		tr := &rw.tr
		tr.Begin(r.Header.Get(obs.TraceHeader), label)
		w.Header().Set(obs.TraceHeader, tr.ID)
		h(rw, r)
		if !rw.wrote && r.Context().Err() != nil {
			rw.code = statusClientClosed // nothing went out: not a 200
		}
		elapsed := time.Since(tr.Start())
		em.observe(rw.code, elapsed.Seconds())
		// ServedByHeader is stamped by the sharded path (self or, after a
		// successful proxy, the owning replica); reading it back here keeps
		// the snapshot consistent with what the client saw.
		snap := tr.Finish(rw.code, elapsed,
			w.Header().Get(ServedByHeader),
			r.Header.Get(ForwardedFromHeader) != "")
		s.metrics.observeStages(snap)
		s.traces.Add(snap)
		s.reqLog.Request(snap)
		// Drop net/http's writer, which would pin the connection; the trace
		// keeps its strings until the next request's Begin clears it.
		rw.ResponseWriter = nil
		routedPool.Put(rw)
	})
}

// statusClientClosed is the code counted and logged for a request whose
// client was gone before the handler wrote anything (nginx's 499): no
// status line was sent, so neither the implicit 200 nor an error applies.
const statusClientClosed = 499

// routedWriter is the ResponseWriter route hands its handler: it captures
// the response code for metrics and whether the handler wrote anything at
// all, and it carries the request's trace. It lives exactly as long as its
// request (see obs.Trace): a handler must not keep it, or the trace,
// after it returns.
type routedWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
	tr    obs.Trace
}

var routedPool = sync.Pool{New: func() any { return new(routedWriter) }}

// traceOf returns the trace of the request w answers, nil when w is not a
// routed writer (a handler called directly, as the allocation pins do).
func traceOf(w http.ResponseWriter) *obs.Trace {
	if rw, ok := w.(*routedWriter); ok {
		return &rw.tr
	}
	return nil
}

// traceIDOf returns the trace ID of the request w answers, "" when
// untraced.
func traceIDOf(w http.ResponseWriter) string {
	if tr := traceOf(w); tr != nil {
		return tr.ID
	}
	return ""
}

func (rw *routedWriter) WriteHeader(code int) {
	rw.code, rw.wrote = code, true
	rw.ResponseWriter.WriteHeader(code)
}

func (rw *routedWriter) Write(b []byte) (int, error) {
	rw.wrote = true
	return rw.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the underlying writer's Flush
// and SetWriteDeadline, which the /v1/replay NDJSON stream depends on.
func (rw *routedWriter) Unwrap() http.ResponseWriter { return rw.ResponseWriter }

// Handler returns the routed handler (also used by tests and embedders).
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe binds cfg.Addr and serves until ctx is cancelled, then
// drains gracefully within shutdownGrace.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Serve serves on ln until ctx is cancelled (the listener is closed by the
// underlying http.Server on shutdown). Useful with a port-0 listener in
// tests and examples.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:      s.Handler(),
		ReadTimeout:  readTimeout,
		WriteTimeout: writeTimeout,
		IdleTimeout:  idleTimeout,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			return err
		}
		// Surface the Serve return (http.ErrServerClosed on clean exit).
		if err := <-errCh; err != nil && err != http.ErrServerClosed {
			return err
		}
		return nil
	}
}

// CacheStats exposes hit/miss/size counters for logging and tests.
func (s *Server) CacheStats() (hits, misses uint64, entries int) {
	hits, misses = s.cache.stats()
	return hits, misses, s.cache.len()
}
