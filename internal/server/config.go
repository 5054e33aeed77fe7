// Package server implements chronosd, the online speculation-planning
// service: a stdlib-only HTTP JSON front end over the chronos analytic and
// simulation layers. A cluster scheduler consults it per arriving
// deadline-critical job (POST /v1/plan), per admission batch under a shared
// machine-time budget (POST /v1/plan/batch), and for offline what-if
// analysis (GET /v1/tradeoff, and POST /v1/replay, which runs a job stream
// on the discrete-event cluster). Hot-path plans are served from a sharded
// LRU cache keyed by the job parameters' exact bits, and all traffic is
// observable through GET /metrics in Prometheus text format.
package server

import (
	"log/slog"
	"time"

	"chronos/internal/tenant"
)

// Fixed operating values: no deployment, test, script or benchmark needs a
// different one, so they are not options. The limits a test shrinks in order
// to exercise them are Config fields below.
const (
	// cacheShards is the number of independently locked plan-cache shards.
	cacheShards = 16
	// maxTradeoffPoints caps the r range of /v1/tradeoff.
	maxTradeoffPoints = 256
	// escrowSnapshotInterval is how often the ledger folds its WAL into a
	// fresh snapshot.
	escrowSnapshotInterval = 30 * time.Second
	// http.Server limits. The write deadline runs from the request header
	// to the end of the answer, so it spans the handler's work: a cold
	// /v1/plan/batch solves up to MaxBatchJobs plans, and a /v1/replay
	// stream builds its job stream before its first event clears the
	// deadline.
	readTimeout  = 10 * time.Second
	writeTimeout = 60 * time.Second
	idleTimeout  = 120 * time.Second
	// shutdownGrace bounds the graceful drain on shutdown.
	shutdownGrace = 10 * time.Second
)

// Config shapes one chronosd instance. The zero value is usable: every
// field has a production-sane default filled in by withDefaults.
type Config struct {
	// Addr is the listen address (host:port). Default ":8080".
	Addr string

	// CacheCapacity is the total number of cached plans across all shards.
	// Zero means 4096; negative is an Open error.
	CacheCapacity int

	// MaxBodyBytes caps request bodies; larger requests get 413.
	// Default 1 MiB.
	MaxBodyBytes int64

	// MaxBatchJobs caps the jobs accepted by one /v1/plan/batch call.
	// Default 1024.
	MaxBatchJobs int
	// MaxReplayJobs caps the jobs of one POST /v1/replay stream (uploaded
	// or generated server-side). The streaming engine's memory tracks
	// in-flight jobs rather than the trace, so this bounds CPU commitment,
	// not allocation.
	// Default 100000.
	MaxReplayJobs int
	// MaxActiveReplays bounds concurrently running /v1/replay streams;
	// excess requests get 503 with Retry-After. Each is a whole-simulation
	// CPU commitment, so this keeps a burst of them from starving the
	// planning hot path.
	// Default 4.
	MaxActiveReplays int

	// Self and Peers are the initial rendezvous-hash ring membership: Self
	// is this replica's advertised base URL, Peers the fleet's base URLs
	// (Self may be included or not). Both empty disables sharding; Peers
	// without Self is a startup error. Swappable at runtime with
	// Server.SetRing.
	Self  string
	Peers []string
	// ForwardTimeout bounds one replica-to-replica forward before the
	// caller degrades: a plan is solved locally, an admit refused. Default
	// 2 s.
	ForwardTimeout time.Duration
	// BreakerThreshold is the consecutive failed peer calls that open a
	// peer's circuit; BreakerCooldown is how long an open circuit skips the
	// peer before admitting a single half-open probe. Defaults 3 and 5 s.
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// Logger receives structured logs: sampled per-request lines (trace ID,
	// route, status, stage breakdown) and unsampled 5xx lines, which are
	// ERROR lines and so survive any level. On a handler from
	// obs.NewHandler (chronosd's) the server appends request lines into the
	// handler's stream itself; on any other handler they go through slog
	// with the same bytes. Nil disables request logging entirely — the
	// zero-config embedded/test server and the benchmarks run silent.
	Logger *slog.Logger
	// LogSample logs every Nth request line (5xx lines always log). Zero or
	// one logs every request; a line is cheap to make, so a fleet raises
	// this for volume — about 150 bytes times its request rate.
	LogSample int
	// TraceRingSize is how many finished request snapshots /debug/traces
	// retains. Zero means obs.DefaultTraceRingSize (256).
	TraceRingSize int

	// Tenants is the initial multi-tenant budget registry, spent only
	// through /v1/admit and /v1/admit/batch, and only on each tenant's pool
	// owner (the ring owner of its tenant key; every replica without a
	// ring). Nil disables admission: both answer 404. Swappable at runtime
	// with Server.SetTenants.
	Tenants *tenant.Registry

	// Escrow is ignored.
	//
	// Deprecated: every replica runs the one accounting mode Escrow once
	// selected, less its leases: a tenant's admits are decided and debited
	// only on its pool owner.
	Escrow bool
	// Store is the snapshot+WAL durability layer of the pools this replica
	// owns (opened from -data-dir). Nil keeps the ledger memory-only: a
	// restarted owner starts its pools full.
	Store *tenant.Store
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.CacheCapacity == 0 {
		c.CacheCapacity = 4096
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxBatchJobs <= 0 {
		c.MaxBatchJobs = 1024
	}
	if c.MaxReplayJobs <= 0 {
		c.MaxReplayJobs = 100000
	}
	if c.MaxActiveReplays <= 0 {
		c.MaxActiveReplays = 4
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 2 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	return c
}
