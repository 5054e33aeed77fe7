package server

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"chronos/internal/metrics"
	"chronos/internal/obs"
	"chronos/internal/tenant"
)

// stageBuckets covers the per-stage span range: a sharded cache lookup is
// ~100 ns, a cold three-strategy solve ≈5 µs, a cross-replica forward or a
// long replay's cumulative event writes can reach seconds. The default
// request-latency buckets bottom out at 100 µs — far too coarse here.
func stageBuckets() []float64 {
	return []float64{
		1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
		1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
		0.1, 0.25, 0.5, 1, 2.5,
	}
}

// serverMetrics aggregates the serving-side observability state: request
// counts and latency histograms per endpoint, plans served per strategy,
// and per-tenant admission counters. Rendering follows the Prometheus text
// exposition format.
type serverMetrics struct {
	mu        sync.Mutex
	endpoints map[string]*endpointMetrics
	tenants   map[string]*tenantMetrics
	plans     counterVec[string] // by winning strategy

	// Streaming-replay series: lifetime starts, currently-open streams, and
	// cumulative jobs/events pushed over /v1/replay.
	replaysStarted metrics.Counter
	replaysActive  atomic.Int64
	replayJobs     metrics.Counter
	replayEvents   metrics.Counter

	// Ring series: per-peer relayed forwards, failed peer calls (counted by
	// peerState.call) and connections dialed (peerState.exchange; forwards ÷
	// dials is the connection reuse ratio), plus the aggregate fallback/guard
	// counters of the sharded serving path.
	ringForwards counterVec[string] // by peer URL
	ringErrors   counterVec[string] // by peer URL
	ringDials    counterVec[string] // by peer URL
	// ringLocalFallbacks counts requests computed locally although another
	// replica owned the key (circuit open, forward failed, or owner 5xx).
	ringLocalFallbacks metrics.Counter
	// ringReceivedForwards counts requests that arrived with the single-hop
	// guard header and were therefore computed locally.
	ringReceivedForwards metrics.Counter

	// encodeFailures counts responses whose JSON encoding failed (answered
	// as HTTP 500 and logged at warn with the trace ID).
	encodeFailures metrics.Counter

	// Escrow series: per-tenant grants issued (owner side), lease top-ups
	// performed (holder side), and expired-lease reclamations (owner side).
	escrowGrants counterVec[string] // by tenant
	escrowTopups counterVec[string] // by tenant

	// stageSeconds histograms the per-request time spent in each hot-path
	// stage (chronosd_stage_seconds{stage=...}); each request contributes
	// its accumulated span per stage that fired.
	stageSeconds [obs.NumStages]*metrics.LatencyHistogram

	start time.Time
}

// observeStages folds one finished request's span breakdown into the
// per-stage histograms. Stages that never fired contribute nothing, so
// endpoint mix does not flatten the distributions.
func (m *serverMetrics) observeStages(snap *obs.Snapshot) {
	if snap == nil {
		return
	}
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		if snap.StageCounts[s] != 0 {
			m.stageSeconds[s].Observe(snap.StageSeconds(s))
		}
	}
}

// counterVec is one labelled counter family: counters keyed by a label
// value, created on first use, rendered sorted by that value. The zero value
// is ready to use.
type counterVec[K cmp.Ordered] struct {
	mu       sync.Mutex
	counters map[K]*metrics.Counter
}

// inc adds one to the counter for label value k.
func (v *counterVec[K]) inc(k K) {
	v.mu.Lock()
	c, ok := v.counters[k]
	if !ok {
		if v.counters == nil {
			v.counters = make(map[K]*metrics.Counter)
		}
		c = &metrics.Counter{}
		v.counters[k] = c
	}
	v.mu.Unlock()
	c.Inc()
}

// write renders the family, snapshotting the counts under the lock before
// printing. prefix is the series name through the brace and any leading
// labels, e.g. `chronosd_plans_total{`.
func (v *counterVec[K]) write(w io.Writer, prefix, label string) {
	v.mu.Lock()
	counts := make(map[K]uint64, len(v.counters))
	for k, c := range v.counters {
		counts[k] = c.Value()
	}
	v.mu.Unlock()
	writeLabeled(w, prefix, label, counts)
}

// writeLabeled prints one `prefix label="key"} value` line per entry, sorted
// by key.
func writeLabeled[K cmp.Ordered, V any](w io.Writer, prefix, label string, values map[K]V) {
	keys := make([]K, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s%s=%q} %v\n", prefix, label, fmt.Sprint(k), values[k])
	}
}

// writeHistogram prints one labelled histogram series: cumulative buckets,
// +Inf, sum and count.
func writeHistogram(w io.Writer, metric, label, value string, h *metrics.LatencyHistogram) {
	snap := h.Snapshot()
	for i, bound := range snap.Bounds {
		fmt.Fprintf(w, "%s_bucket{%s=%q,le=%q} %d\n",
			metric, label, value, strconv.FormatFloat(bound, 'g', -1, 64), snap.Cumulative[i])
	}
	fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", metric, label, value, snap.Count)
	fmt.Fprintf(w, "%s_sum{%s=%q} %g\n", metric, label, value, snap.Sum)
	fmt.Fprintf(w, "%s_count{%s=%q} %d\n", metric, label, value, snap.Count)
}

// replayStarted marks one /v1/replay stream opening; the returned func
// closes it. Jobs and events emitted mid-stream are counted via replayEmit.
func (m *serverMetrics) replayStarted() (done func()) {
	m.replaysStarted.Inc()
	m.replaysActive.Add(1)
	return func() { m.replaysActive.Add(-1) }
}

// replayEmit counts one streamed event (and, for job completions, one
// replayed job).
func (m *serverMetrics) replayEmit(jobCompleted bool) {
	m.replayEvents.Inc()
	if jobCompleted {
		m.replayJobs.Inc()
	}
}

// tenantMetrics accumulates one tenant's admission-control counters.
type tenantMetrics struct {
	admits  metrics.Counter
	rejects counterVec[string] // by structured reason
	plans   counterVec[string] // by strategy
}

type endpointMetrics struct {
	codes   counterVec[int] // by status code
	latency *metrics.LatencyHistogram
}

func newServerMetrics() *serverMetrics {
	m := &serverMetrics{
		endpoints: make(map[string]*endpointMetrics),
		tenants:   make(map[string]*tenantMetrics),
		start:     time.Now(),
	}
	for s := range m.stageSeconds {
		m.stageSeconds[s] = metrics.NewLatencyHistogram(stageBuckets()...)
	}
	return m
}

// endpoint returns the per-endpoint accumulator, creating it on first use.
func (m *serverMetrics) endpoint(path string) *endpointMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	em, ok := m.endpoints[path]
	if !ok {
		em = &endpointMetrics{latency: metrics.NewLatencyHistogram()}
		m.endpoints[path] = em
	}
	return em
}

// observe records one finished request.
func (em *endpointMetrics) observe(code int, seconds float64) {
	em.codes.inc(code)
	em.latency.Observe(seconds)
}

// tenant returns the per-tenant accumulator, creating it on first use.
func (m *serverMetrics) tenant(name string) *tenantMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	tm, ok := m.tenants[name]
	if !ok {
		tm = &tenantMetrics{}
		m.tenants[name] = tm
	}
	return tm
}

// tenantAdmit counts one ledger-debited plan for the tenant.
func (m *serverMetrics) tenantAdmit(name, strategy string) {
	tm := m.tenant(name)
	tm.admits.Inc()
	tm.plans.inc(strategy)
}

// tenantReject counts one admission rejection with its structured reason.
func (m *serverMetrics) tenantReject(name, reason string) {
	m.tenant(name).rejects.inc(reason)
}

// scrape is the live state one /metrics rendering reads besides the
// counters: the cache, tenant registry, ring view and escrow manager whose
// gauges reflect the moment of the scrape (rs and esc are nil when
// unconfigured), and the label sets, snapshotted once so every family prints
// the same endpoints and tenants in the same order.
type scrape struct {
	cache     *planCache
	reg       *tenant.Registry
	rs        *ringState
	esc       *escrowManager
	endpoints []string // sorted
	tenants   []string // sorted; every tenant a counter has seen
}

// series is one /metrics family. The ordered table catalog returns is both
// the renderer's program and the inventory of what chronosd exports: help is
// the one-line meaning printed as # HELP, and checkedBy names what exercises
// the family — a Test function of this package, or bench:<metric> for a
// BENCHMARK.json metric computed from it. TestMetricCatalog fails on a row
// missing either, so a series cannot be added without saying what it is for
// and what would notice it breaking.
type series struct {
	name, typ, help, checkedBy string
	// present gates a family that exists only in some configurations; nil
	// means always.
	present func(*scrape) bool
	write   sampleWriter
}

// sampleWriter prints one family's sample lines.
type sampleWriter func(w io.Writer, name string, sc *scrape)

func hasEscrow(sc *scrape) bool { return sc.esc != nil }
func hasRing(sc *scrape) bool   { return sc.rs != nil }

// counter writes an unlabelled counter's one sample.
func counter(c *metrics.Counter) sampleWriter {
	return func(w io.Writer, name string, _ *scrape) { fmt.Fprintf(w, "%s %d\n", name, c.Value()) }
}

// gauge writes one unlabelled sample computed at scrape time.
func gauge[T any](get func(*scrape) T) sampleWriter {
	return func(w io.Writer, name string, sc *scrape) { fmt.Fprintf(w, "%s %v\n", name, get(sc)) }
}

// labelled writes a family that is one counterVec.
func labelled(label string, v *counterVec[string]) sampleWriter {
	return func(w io.Writer, name string, _ *scrape) { v.write(w, name+"{", label) }
}

// perTenant writes a two-label family: one counterVec per tenant.
func (m *serverMetrics) perTenant(label string, vec func(*tenantMetrics) *counterVec[string]) sampleWriter {
	return func(w io.Writer, name string, sc *scrape) {
		for _, t := range sc.tenants {
			vec(m.tenant(t)).write(w, fmt.Sprintf("%s{tenant=%q,", name, t), label)
		}
	}
}

// catalog is the ordered table of every family /metrics exports.
func (m *serverMetrics) catalog() []series {
	requests := func(w io.Writer, name string, sc *scrape) {
		for _, path := range sc.endpoints {
			m.endpoint(path).codes.write(w, fmt.Sprintf("%s{endpoint=%q,", name, path), "code")
		}
	}
	durations := func(w io.Writer, name string, sc *scrape) {
		for _, path := range sc.endpoints {
			writeHistogram(w, name, "endpoint", path, m.endpoint(path).latency)
		}
	}
	stages := func(w io.Writer, name string, _ *scrape) {
		for s := obs.Stage(0); s < obs.NumStages; s++ {
			writeHistogram(w, name, "stage", s.String(), m.stageSeconds[s])
		}
	}
	tenantAdmits := func(w io.Writer, name string, sc *scrape) {
		for _, t := range sc.tenants {
			fmt.Fprintf(w, "%s{tenant=%q} %d\n", name, t, m.tenant(t).admits.Value())
		}
	}
	budgets := func(w io.Writer, name string, sc *scrape) {
		for _, p := range sc.reg.Pools() {
			fmt.Fprintf(w, "%s{tenant=%q} %g\n", name, p.Name(), p.Remaining())
		}
	}
	outstanding := func(w io.Writer, name string, sc *scrape) {
		writeLabeled(w, name+"{", "tenant", sc.esc.outstanding(sc.reg))
	}
	leaseLevels := func(w io.Writer, name string, sc *scrape) {
		writeLabeled(w, name+"{", "tenant", sc.esc.leaseLevels())
	}
	cacheHits := gauge(func(sc *scrape) uint64 { hits, _ := sc.cache.stats(); return hits })
	cacheMisses := gauge(func(sc *scrape) uint64 { _, misses := sc.cache.stats(); return misses })
	cacheEntries := gauge(func(sc *scrape) int { return sc.cache.len() })
	walFailures := gauge(func(sc *scrape) uint64 { fails, _ := sc.esc.led.WALFailures(); return fails })
	replaysActive := gauge(func(*scrape) int64 { return m.replaysActive.Load() })
	ringNodes := gauge(func(sc *scrape) int {
		if sc.rs == nil {
			return 0
		}
		return sc.rs.ring.Len()
	})
	ownedFraction := gauge(func(sc *scrape) float64 { return sc.rs.ring.OwnedFraction(sc.rs.self) })
	uptime := gauge(func(*scrape) float64 { return time.Since(m.start).Seconds() })
	rejects := m.perTenant("reason", func(tm *tenantMetrics) *counterVec[string] { return &tm.rejects })
	tenantPlans := m.perTenant("strategy", func(tm *tenantMetrics) *counterVec[string] { return &tm.plans })

	return []series{
		{"chronosd_requests_total", "counter", "Requests served, by endpoint and status code; 499: the client left before anything was written.", "TestMetricsEndpoint", nil, requests},
		{"chronosd_request_duration_seconds", "histogram", "Request latency, by endpoint.", "TestMetricsEndpoint", nil, durations},
		{"chronosd_stage_seconds", "histogram", "Per-request time in each hot-path stage.", "TestMetricsExposeStageHistograms", nil, stages},
		{"chronosd_plans_total", "counter", "Plans served, by winning strategy.", "TestAdmitEqualsBatchOfOne", nil, labelled("strategy", &m.plans)},
		{"chronosd_plan_cache_hits_total", "counter", "Plan cache hits.", "TestMetricsEndpoint", nil, cacheHits},
		{"chronosd_plan_cache_misses_total", "counter", "Plan cache misses.", "TestMetricsEndpoint", nil, cacheMisses},
		{"chronosd_plan_cache_entries", "gauge", "Plans currently cached.", "TestMetricsEndpoint", nil, cacheEntries},
		{"chronosd_tenant_admits_total", "counter", "Ledger-debited plans, by tenant.", "TestAdmitEqualsBatchOfOne", nil, tenantAdmits},
		{"chronosd_tenant_rejects_total", "counter", "Admission rejections, by tenant and reason.", "TestAdmitEqualsBatchOfOne", nil, rejects},
		{"chronosd_tenant_plans_total", "counter", "Admitted plans, by tenant and strategy.", "TestAdmitEqualsBatchOfOne", nil, tenantPlans},
		{"chronosd_tenant_budget_remaining", "gauge", "Machine-seconds left in each pool.", "TestTenantMetrics", nil, budgets},
		{"chronosd_escrow_outstanding", "gauge", "Machine-seconds granted and not yet reported spent, by owned tenant.", "TestFleetEscrowNeverOverCommits", hasEscrow, outstanding},
		{"chronosd_escrow_lease_level", "gauge", "Machine-seconds available in this replica's local leases, by tenant.", "TestAdmitBatchSingleLeaseDebit", hasEscrow, leaseLevels},
		{"chronosd_escrow_grants_total", "counter", "Escrow grants issued by this replica as pool owner, by tenant.", "TestAdmitBatchSingleLeaseDebit", hasEscrow, labelled("tenant", &m.escrowGrants)},
		{"chronosd_escrow_topups_total", "counter", "Lease top-ups performed by this replica as holder, by tenant.", "TestAdmitBatchSingleLeaseDebit", hasEscrow, labelled("tenant", &m.escrowTopups)},
		{"chronosd_escrow_wal_append_failures_total", "counter", "Ledger records the WAL failed to persist; nonzero means recovery after a restart would resurrect spent budget.", "TestWALAppendFailureCounted", hasEscrow, walFailures},
		{"chronosd_replays_total", "counter", "Streaming replays started over /v1/replay.", "TestReplayStreamProtocol", nil, counter(&m.replaysStarted)},
		{"chronosd_replays_active", "gauge", "Replay streams currently open.", "TestReplayClientDisconnect", nil, replaysActive},
		{"chronosd_replay_jobs_total", "counter", "Jobs replayed to completion over /v1/replay.", "TestReplayStreamProtocol", nil, counter(&m.replayJobs)},
		{"chronosd_replay_events_total", "counter", "NDJSON events emitted over /v1/replay.", "TestReplayStreamProtocol", nil, counter(&m.replayEvents)},
		{"chronosd_ring_nodes", "gauge", "Replicas in the consistent-hash ring (0 = sharding off).", "TestRingMetricsGauges", nil, ringNodes},
		{"chronosd_ring_owned_fraction", "gauge", "Fraction of the plan keyspace this replica owns.", "TestRingMetricsGauges", hasRing, ownedFraction},
		{"chronosd_ring_forwarded_total", "counter", "Requests proxied to the owning replica, by peer.", "bench:server.forwarded_frac", nil, labelled("peer", &m.ringForwards)},
		{"chronosd_ring_peer_errors_total", "counter", "Failed peer calls (forwards and escrow leases), by peer.", "TestPeerCall", nil, labelled("peer", &m.ringErrors)},
		{"chronosd_ring_peer_dials_total", "counter", "Connections dialed to a peer; peer calls reuse them, so forwards per dial is the reuse ratio.", "TestPeerCall", nil, labelled("peer", &m.ringDials)},
		{"chronosd_ring_local_fallbacks_total", "counter", "Non-owned keys computed locally because the owner was unreachable.", "TestFleetOwnerDownLocalFallback", nil, counter(&m.ringLocalFallbacks)},
		{"chronosd_ring_received_forwards_total", "counter", "Requests served under the single-hop forwarding guard.", "TestForwardLoopGuard", nil, counter(&m.ringReceivedForwards)},
		{"chronosd_response_encode_failures_total", "counter", "Responses whose JSON encoding failed (answered as HTTP 500).", "TestEncodeFailureIsCounted500", nil, counter(&m.encodeFailures)},
		{"chronosd_uptime_seconds", "gauge", "Seconds since the server started.", "TestMetricsEndpoint", nil, uptime},
	}
}

// writePrometheus renders the catalog in the text exposition format.
func (m *serverMetrics) writePrometheus(w io.Writer, cache *planCache, reg *tenant.Registry, rs *ringState, esc *escrowManager) {
	sc := &scrape{cache: cache, reg: reg, rs: rs, esc: esc}
	m.mu.Lock()
	for path := range m.endpoints {
		sc.endpoints = append(sc.endpoints, path)
	}
	for name := range m.tenants {
		sc.tenants = append(sc.tenants, name)
	}
	m.mu.Unlock()
	sort.Strings(sc.endpoints)
	sort.Strings(sc.tenants)
	for _, f := range m.catalog() {
		if f.present == nil || f.present(sc) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
			f.write(w, f.name, sc)
		}
	}
}
