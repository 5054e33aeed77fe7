// Command chronosd runs the online speculation-planning service: an HTTP
// JSON API over the Chronos PoCD/cost optimization, with a sharded plan
// cache (a miss solves on its request's goroutine), multi-tenant budget
// pools, Prometheus metrics, and graceful shutdown on SIGINT/SIGTERM.
//
// Usage:
//
//	chronosd [-addr :8080] [-cache-capacity 4096] [-max-body 1048576]
//	         [-tenants tenants.json]
//	         [-self http://host:port -peers url1,url2,... | -ring ring.json]
//	         [-data-dir /var/lib/chronosd]
//	         [-log-level info] [-log-sample 1] [-debug-addr 127.0.0.1:6060]
//
// Every other operating value (request-size and simulation limits, HTTP
// timeouts, the peer-call timeout, snapshot interval, cache shard count,
// trace-ring size) is a fixed constant in internal/server.
//
// Endpoints:
//
//	POST /v1/plan        optimal plan for one job (cached hot path)
//	POST /v1/plan/batch  shared-budget allocation across a job batch
//	POST /v1/admit       online admission control against a tenant budget pool
//	POST /v1/admit/batch admission decisions for several same-tenant jobs
//	GET  /v1/tradeoff    PoCD/cost frontier for one strategy
//	POST /v1/replay      discrete-event what-if run: NDJSON per-job events
//	                     ending in the run's report, with optional
//	                     server-side trace generation
//	GET  /metrics        Prometheus text metrics
//	GET  /healthz        liveness probe
//	GET  /debug/traces   slowest recent request traces with stage breakdowns
//
// Every request carries a trace ID (honored from X-Chronosd-Trace-Id or
// minted) that is stamped on the response, propagated across forward hops,
// and attached to the sampled JSON request log lines (-log-level,
// -log-sample). With -debug-addr a second listener serves /debug/pprof/ and
// /debug/traces, so profiling never shares the serving listener.
//
// With -self/-peers (or a -ring membership file), the replica joins a
// rendezvous-hash ring over the fleet: /v1/plan requests whose plan key
// another replica owns are proxied there, so the fleet's LRU caches
// partition the keyspace instead of overlapping. An unreachable owner
// degrades to local computation (per-peer circuit breaking with a single
// half-open probe per cooldown), never to a failed request. The breaker is
// the only liveness judge: a dead member keeps its keys, each replica solves
// them locally while the member's circuit is open, and the first half-open
// probe after its return forwards to it again. Plans are never persisted or
// exchanged, because solving one (2.5 µs) costs less than moving it (4.0 µs).
//
// Tenant budgets are fleet-exact: the ring owner of each tenant key (every
// replica, without a ring) holds the tenant's one pool, and /v1/admit and
// /v1/admit/batch are decided and debited there only. Any other replica
// relays them to the owner unchanged; while the owner cannot be reached it
// refuses them with budget_exhausted and never spends a pool of its own, so
// a dead owner's tenants are refused instead of handed a second pool.
// -data-dir makes the pools this replica owns durable (periodic snapshot +
// append-only WAL, replayed on boot); a data dir the owner cannot write its
// boot snapshot to stops chronosd. -escrow, which once selected this mode,
// is accepted and ignored.
//
// SIGHUP re-reads the -tenants and -ring config files: tenant reloads carry
// live ledger levels over for pools whose budget shape is unchanged and
// flush the plan cache; ring reloads swap the membership atomically. A
// failed reload keeps the previous configuration.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"chronos/internal/obs"
	"chronos/internal/ring"
	"chronos/internal/server"
	"chronos/internal/tenant"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		cacheCapacity = flag.Int("cache-capacity", 4096, "total cached plans across shards")
		maxBody       = flag.Int64("max-body", 1<<20, "request body limit in bytes")
		tenantsPath   = flag.String("tenants", "", "tenant budget-pool config file (JSON); SIGHUP reloads it")
		self          = flag.String("self", "", "this replica's base URL in the rendezvous-hash ring")
		peers         = flag.String("peers", "", "comma-separated fleet base URLs (ring membership)")
		ringPath      = flag.String("ring", "", "ring membership file (JSON {self, peers}); SIGHUP reloads it")
		_             = flag.Bool("escrow", false, "deprecated and ignored: every replica decides a tenant's admits on the tenant's pool owner")
		dataDir       = flag.String("data-dir", "", "durability directory for the owned pools' snapshot+WAL (empty = memory only)")
		logLevel      = flag.String("log-level", "info", "log level: debug, info, warn, or error")
		logSample     = flag.Int("log-sample", 1, "log every Nth request line (5xx always log)")
		debugAddr     = flag.String("debug-addr", "", "separate listener for /debug/pprof/ and /debug/traces (empty disables)")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chronosd:", err)
		os.Exit(1)
	}
	// All operational logs are structured JSON on stderr, machine-parseable
	// by the same pipeline that ingests the request lines; obs's handler is
	// what lets the server append those lines into the same stream itself.
	logger := slog.New(obs.NewHandler(os.Stderr, level))
	slog.SetDefault(logger)

	var tenants *tenant.Registry
	if *tenantsPath != "" {
		tenants, err = tenant.LoadFile(*tenantsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chronosd:", err)
			os.Exit(1)
		}
		logger.Info("tenants loaded", "pools", tenants.Len(), "path", *tenantsPath)
	}

	membership := ring.Membership{Self: *self, Peers: ring.ParsePeers(*peers)}
	if *ringPath != "" {
		if membership.Enabled() {
			fmt.Fprintln(os.Stderr, "chronosd: -ring is mutually exclusive with -self/-peers")
			os.Exit(1)
		}
		membership, err = ring.LoadFile(*ringPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chronosd:", err)
			os.Exit(1)
		}
	}
	if err := membership.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "chronosd:", err)
		os.Exit(1)
	}
	if membership.Enabled() {
		logger.Info("ring join",
			"self", ring.NormalizeURL(membership.Self),
			"members", len(membership.Members()))
	}

	var store *tenant.Store
	if *dataDir != "" {
		store, err = tenant.OpenStore(*dataDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chronosd:", err)
			os.Exit(1)
		}
		logger.Info("data dir opened", "path", *dataDir, "pools", len(store.State().Pools))
	}

	srv, err := server.Open(server.Config{
		Addr:          *addr,
		CacheCapacity: *cacheCapacity,
		MaxBodyBytes:  *maxBody,
		Tenants:       tenants,
		Self:          membership.Self,
		Peers:         membership.Peers,
		Store:         store,
		Logger:        logger,
		LogSample:     *logSample,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "chronosd:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One SIGHUP reloads every file-backed config: tenant budgets and ring
	// membership share the reload path, so fleet-wide rollouts need one
	// signal per replica, not one per subsystem.
	if *tenantsPath != "" || *ringPath != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for {
				select {
				case <-ctx.Done():
					return
				case <-hup:
					if *tenantsPath != "" {
						reloaded, err := tenant.LoadFile(*tenantsPath)
						if err != nil {
							logger.Error("SIGHUP tenant reload failed, keeping previous tenants",
								"path", *tenantsPath, "error", err.Error())
						} else {
							reloaded.Rebase(srv.Tenants())
							srv.SetTenants(reloaded)
							logger.Info("tenants reloaded (plan cache flushed)",
								"pools", reloaded.Len(), "path", *tenantsPath)
						}
					}
					if *ringPath != "" {
						m, err := ring.LoadFile(*ringPath)
						if err != nil {
							logger.Error("SIGHUP ring reload failed, keeping previous ring",
								"path", *ringPath, "error", err.Error())
						} else if err := srv.SetRing(m); err != nil {
							logger.Error("SIGHUP ring swap failed, keeping previous ring",
								"path", *ringPath, "error", err.Error())
						} else {
							logger.Info("ring membership reloaded",
								"path", *ringPath, "members", len(m.Members()))
						}
					}
				}
			}
		}()
	}

	// The debug surface gets its own listener: pprof handlers block for up
	// to their profiling window and must never contend with (or be exposed
	// on) the serving address.
	if *debugAddr != "" {
		dbg := &http.Server{Addr: *debugAddr, Handler: srv.DebugHandler()}
		go func() {
			<-ctx.Done()
			shutCtx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			_ = dbg.Shutdown(shutCtx)
		}()
		go func() {
			logger.Info("debug listener up", "addr", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("debug listener failed", "addr", *debugAddr, "error", err.Error())
			}
		}()
	}

	logger.Info("listening", "addr", *addr,
		"logLevel", level.String(), "logSample", *logSample,
		"dataDir", *dataDir)
	if err := srv.ListenAndServe(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "chronosd:", err)
		os.Exit(1)
	}
	// Graceful teardown: compact the ledger, then close the WAL.
	srv.Close()
	if err := store.Close(); err != nil {
		logger.Error("data dir close failed", "error", err.Error())
	}
	hits, misses, entries := srv.CacheStats()
	logger.Info("stopped",
		"cacheHits", hits, "cacheMisses", misses, "cacheEntries", entries)
}
