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
// ~100 ns, a cold three-strategy solve ~500 µs, a cross-replica forward or a
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

	// Ring series: per-peer relayed forwards and failed peer calls (counted
	// by peerState.call), plus the aggregate fallback/guard counters of the
	// sharded serving path.
	ringForwards counterVec[string] // by peer URL
	ringErrors   counterVec[string] // by peer URL
	// ringLocalFallbacks counts requests computed locally although another
	// replica owned the key (circuit open, forward failed, or owner 5xx).
	ringLocalFallbacks metrics.Counter
	// ringReceivedForwards counts requests that arrived with the single-hop
	// guard header and were therefore computed locally.
	ringReceivedForwards metrics.Counter

	// Fleet-health series. ringHeartbeatFails counts failed liveness probes
	// per configured member; ringEvictions/ringReadmits count suspect/alive
	// membership transitions this replica applied to its effective ring.
	ringHeartbeatFails counterVec[string] // by peer URL
	ringEvictions      metrics.Counter
	ringReadmits       metrics.Counter
	// ringReplicaReads counts plan-keyed requests answered from a replica
	// copy (local or remote) while the key's owner was unreachable;
	// ringHandoffEntries counts cache entries streamed to their new owners
	// on membership changes.
	ringReplicaReads   metrics.Counter
	ringHandoffEntries metrics.Counter

	// encodeFailures counts responses whose JSON encoding failed (answered
	// as HTTP 500 and logged at warn with the trace ID).
	encodeFailures metrics.Counter

	// Singleflight series: cold-miss solves actually run (leaders) and
	// requests that piggybacked on a concurrent identical solve (waiters).
	// waiters/(leaders+waiters) is the fraction of cold traffic the miss
	// collapse absorbed.
	flightLeaders metrics.Counter
	flightWaiters metrics.Counter

	// Escrow series: per-tenant grants issued (owner side), lease top-ups
	// performed (holder side), and expired-lease reclamations (owner side).
	escrowGrants   counterVec[string] // by tenant
	escrowTopups   counterVec[string] // by tenant
	escrowReclaims counterVec[string] // by tenant

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

// writePrometheus renders every metric in the text exposition format. The
// cache, tenant registry, ring view, and escrow manager are passed in so
// their gauges reflect live state (reg, rs, and esc may be nil when
// unconfigured).
func (m *serverMetrics) writePrometheus(w io.Writer, cache *planCache, reg *tenant.Registry, rs *ringState, esc *escrowManager) {
	m.mu.Lock()
	endpoints := make([]string, 0, len(m.endpoints))
	for p := range m.endpoints {
		endpoints = append(endpoints, p)
	}
	sort.Strings(endpoints)
	m.mu.Unlock()

	fmt.Fprintln(w, "# HELP chronosd_requests_total Requests served, by endpoint and status code.")
	fmt.Fprintln(w, "# TYPE chronosd_requests_total counter")
	for _, path := range endpoints {
		m.endpoint(path).codes.write(w, fmt.Sprintf("chronosd_requests_total{endpoint=%q,", path), "code")
	}

	fmt.Fprintln(w, "# HELP chronosd_request_duration_seconds Request latency, by endpoint.")
	fmt.Fprintln(w, "# TYPE chronosd_request_duration_seconds histogram")
	for _, path := range endpoints {
		writeHistogram(w, "chronosd_request_duration_seconds", "endpoint", path, m.endpoint(path).latency)
	}

	fmt.Fprintln(w, "# HELP chronosd_stage_seconds Per-request time in each hot-path stage.")
	fmt.Fprintln(w, "# TYPE chronosd_stage_seconds histogram")
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		writeHistogram(w, "chronosd_stage_seconds", "stage", s.String(), m.stageSeconds[s])
	}

	fmt.Fprintln(w, "# HELP chronosd_plans_total Plans served, by winning strategy.")
	fmt.Fprintln(w, "# TYPE chronosd_plans_total counter")
	m.plans.write(w, "chronosd_plans_total{", "strategy")

	hits, misses := cache.stats()
	fmt.Fprintln(w, "# HELP chronosd_plan_cache_hits_total Plan cache hits.")
	fmt.Fprintln(w, "# TYPE chronosd_plan_cache_hits_total counter")
	fmt.Fprintf(w, "chronosd_plan_cache_hits_total %d\n", hits)
	fmt.Fprintln(w, "# HELP chronosd_plan_cache_misses_total Plan cache misses.")
	fmt.Fprintln(w, "# TYPE chronosd_plan_cache_misses_total counter")
	fmt.Fprintf(w, "chronosd_plan_cache_misses_total %d\n", misses)
	fmt.Fprintln(w, "# HELP chronosd_plan_cache_entries Plans currently cached.")
	fmt.Fprintln(w, "# TYPE chronosd_plan_cache_entries gauge")
	fmt.Fprintf(w, "chronosd_plan_cache_entries %d\n", cache.len())
	fmt.Fprintln(w, "# HELP chronosd_plan_singleflight_leaders_total Cold-miss solves run as singleflight leaders.")
	fmt.Fprintln(w, "# TYPE chronosd_plan_singleflight_leaders_total counter")
	fmt.Fprintf(w, "chronosd_plan_singleflight_leaders_total %d\n", m.flightLeaders.Value())
	fmt.Fprintln(w, "# HELP chronosd_plan_singleflight_waiters_total Cold misses that piggybacked on a concurrent identical solve.")
	fmt.Fprintln(w, "# TYPE chronosd_plan_singleflight_waiters_total counter")
	fmt.Fprintf(w, "chronosd_plan_singleflight_waiters_total %d\n", m.flightWaiters.Value())

	m.mu.Lock()
	tenantNames := make([]string, 0, len(m.tenants))
	for name := range m.tenants {
		tenantNames = append(tenantNames, name)
	}
	m.mu.Unlock()
	sort.Strings(tenantNames)

	fmt.Fprintln(w, "# HELP chronosd_tenant_admits_total Ledger-debited plans, by tenant.")
	fmt.Fprintln(w, "# TYPE chronosd_tenant_admits_total counter")
	for _, name := range tenantNames {
		fmt.Fprintf(w, "chronosd_tenant_admits_total{tenant=%q} %d\n",
			name, m.tenant(name).admits.Value())
	}

	fmt.Fprintln(w, "# HELP chronosd_tenant_rejects_total Admission rejections, by tenant and reason.")
	fmt.Fprintln(w, "# TYPE chronosd_tenant_rejects_total counter")
	for _, name := range tenantNames {
		m.tenant(name).rejects.write(w, fmt.Sprintf("chronosd_tenant_rejects_total{tenant=%q,", name), "reason")
	}

	fmt.Fprintln(w, "# HELP chronosd_tenant_plans_total Admitted plans, by tenant and strategy.")
	fmt.Fprintln(w, "# TYPE chronosd_tenant_plans_total counter")
	for _, name := range tenantNames {
		m.tenant(name).plans.write(w, fmt.Sprintf("chronosd_tenant_plans_total{tenant=%q,", name), "strategy")
	}

	fmt.Fprintln(w, "# HELP chronosd_tenant_budget_remaining Machine-seconds left in each pool.")
	fmt.Fprintln(w, "# TYPE chronosd_tenant_budget_remaining gauge")
	for _, p := range reg.Pools() {
		fmt.Fprintf(w, "chronosd_tenant_budget_remaining{tenant=%q} %g\n",
			p.Name(), p.Remaining())
	}

	if esc != nil {
		outstanding, leaseLevels := esc.escrowStats(reg)
		fmt.Fprintln(w, "# HELP chronosd_escrow_outstanding Machine-seconds escrowed in outstanding leases, by owned tenant.")
		fmt.Fprintln(w, "# TYPE chronosd_escrow_outstanding gauge")
		writeLabeled(w, "chronosd_escrow_outstanding{", "tenant", outstanding)
		fmt.Fprintln(w, "# HELP chronosd_escrow_lease_level Machine-seconds available in this replica's local leases, by tenant.")
		fmt.Fprintln(w, "# TYPE chronosd_escrow_lease_level gauge")
		writeLabeled(w, "chronosd_escrow_lease_level{", "tenant", leaseLevels)
		fmt.Fprintln(w, "# HELP chronosd_escrow_grants_total Escrow grants issued by this replica as pool owner, by tenant.")
		fmt.Fprintln(w, "# TYPE chronosd_escrow_grants_total counter")
		m.escrowGrants.write(w, "chronosd_escrow_grants_total{", "tenant")
		fmt.Fprintln(w, "# HELP chronosd_escrow_topups_total Lease top-ups performed by this replica as holder, by tenant.")
		fmt.Fprintln(w, "# TYPE chronosd_escrow_topups_total counter")
		m.escrowTopups.write(w, "chronosd_escrow_topups_total{", "tenant")
		fmt.Fprintln(w, "# HELP chronosd_escrow_reclaims_total Expired leases reclaimed by this replica as pool owner, by tenant.")
		fmt.Fprintln(w, "# TYPE chronosd_escrow_reclaims_total counter")
		m.escrowReclaims.write(w, "chronosd_escrow_reclaims_total{", "tenant")
		walFails, _ := esc.led.WALFailures()
		fmt.Fprintln(w, "# HELP chronosd_escrow_wal_append_failures_total Ledger records the WAL failed to persist; nonzero means recovery after a restart would resurrect spent budget.")
		fmt.Fprintln(w, "# TYPE chronosd_escrow_wal_append_failures_total counter")
		fmt.Fprintf(w, "chronosd_escrow_wal_append_failures_total %d\n", walFails)
	}

	fmt.Fprintln(w, "# HELP chronosd_replays_total Streaming replays started over /v1/replay.")
	fmt.Fprintln(w, "# TYPE chronosd_replays_total counter")
	fmt.Fprintf(w, "chronosd_replays_total %d\n", m.replaysStarted.Value())
	fmt.Fprintln(w, "# HELP chronosd_replays_active Replay streams currently open.")
	fmt.Fprintln(w, "# TYPE chronosd_replays_active gauge")
	fmt.Fprintf(w, "chronosd_replays_active %d\n", m.replaysActive.Load())
	fmt.Fprintln(w, "# HELP chronosd_replay_jobs_total Jobs replayed to completion over /v1/replay.")
	fmt.Fprintln(w, "# TYPE chronosd_replay_jobs_total counter")
	fmt.Fprintf(w, "chronosd_replay_jobs_total %d\n", m.replayJobs.Value())
	fmt.Fprintln(w, "# HELP chronosd_replay_events_total NDJSON events emitted over /v1/replay.")
	fmt.Fprintln(w, "# TYPE chronosd_replay_events_total counter")
	fmt.Fprintf(w, "chronosd_replay_events_total %d\n", m.replayEvents.Value())

	fmt.Fprintln(w, "# HELP chronosd_ring_nodes Replicas in the consistent-hash ring (0 = sharding off).")
	fmt.Fprintln(w, "# TYPE chronosd_ring_nodes gauge")
	nodes := 0
	if rs != nil {
		nodes = rs.ring.Len()
	}
	fmt.Fprintf(w, "chronosd_ring_nodes %d\n", nodes)
	if rs != nil {
		fmt.Fprintln(w, "# HELP chronosd_ring_owned_fraction Fraction of the plan keyspace this replica owns.")
		fmt.Fprintln(w, "# TYPE chronosd_ring_owned_fraction gauge")
		fmt.Fprintf(w, "chronosd_ring_owned_fraction %g\n", rs.ring.OwnedFraction(rs.self))
	}
	fmt.Fprintln(w, "# HELP chronosd_ring_forwarded_total Requests proxied to the owning replica, by peer.")
	fmt.Fprintln(w, "# TYPE chronosd_ring_forwarded_total counter")
	m.ringForwards.write(w, "chronosd_ring_forwarded_total{", "peer")
	fmt.Fprintln(w, "# HELP chronosd_ring_peer_errors_total Failed forward attempts, by peer.")
	fmt.Fprintln(w, "# TYPE chronosd_ring_peer_errors_total counter")
	m.ringErrors.write(w, "chronosd_ring_peer_errors_total{", "peer")
	fmt.Fprintln(w, "# HELP chronosd_ring_local_fallbacks_total Non-owned keys computed locally because the owner was unreachable.")
	fmt.Fprintln(w, "# TYPE chronosd_ring_local_fallbacks_total counter")
	fmt.Fprintf(w, "chronosd_ring_local_fallbacks_total %d\n", m.ringLocalFallbacks.Value())
	fmt.Fprintln(w, "# HELP chronosd_ring_received_forwards_total Requests served under the single-hop forwarding guard.")
	fmt.Fprintln(w, "# TYPE chronosd_ring_received_forwards_total counter")
	fmt.Fprintf(w, "chronosd_ring_received_forwards_total %d\n", m.ringReceivedForwards.Value())
	fmt.Fprintln(w, "# HELP chronosd_ring_heartbeat_failures_total Failed liveness probes, by configured member.")
	fmt.Fprintln(w, "# TYPE chronosd_ring_heartbeat_failures_total counter")
	m.ringHeartbeatFails.write(w, "chronosd_ring_heartbeat_failures_total{", "peer")
	fmt.Fprintln(w, "# HELP chronosd_ring_evictions_total Members evicted from this replica's effective ring by the health monitor.")
	fmt.Fprintln(w, "# TYPE chronosd_ring_evictions_total counter")
	fmt.Fprintf(w, "chronosd_ring_evictions_total %d\n", m.ringEvictions.Value())
	fmt.Fprintln(w, "# HELP chronosd_ring_readmits_total Suspected members re-admitted after recovery.")
	fmt.Fprintln(w, "# TYPE chronosd_ring_readmits_total counter")
	fmt.Fprintf(w, "chronosd_ring_readmits_total %d\n", m.ringReadmits.Value())
	fmt.Fprintln(w, "# HELP chronosd_ring_replica_reads_total Plan-keyed requests answered from a replica copy while the owner was unreachable.")
	fmt.Fprintln(w, "# TYPE chronosd_ring_replica_reads_total counter")
	fmt.Fprintf(w, "chronosd_ring_replica_reads_total %d\n", m.ringReplicaReads.Value())
	fmt.Fprintln(w, "# HELP chronosd_ring_handoff_entries_total Cache entries streamed to their new owners on membership changes.")
	fmt.Fprintln(w, "# TYPE chronosd_ring_handoff_entries_total counter")
	fmt.Fprintf(w, "chronosd_ring_handoff_entries_total %d\n", m.ringHandoffEntries.Value())

	fmt.Fprintln(w, "# HELP chronosd_response_encode_failures_total Responses whose JSON encoding failed (answered as HTTP 500).")
	fmt.Fprintln(w, "# TYPE chronosd_response_encode_failures_total counter")
	fmt.Fprintf(w, "chronosd_response_encode_failures_total %d\n", m.encodeFailures.Value())

	fmt.Fprintln(w, "# HELP chronosd_uptime_seconds Seconds since the server started.")
	fmt.Fprintln(w, "# TYPE chronosd_uptime_seconds gauge")
	fmt.Fprintf(w, "chronosd_uptime_seconds %g\n", time.Since(m.start).Seconds())
}
