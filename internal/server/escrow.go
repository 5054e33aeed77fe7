package server

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"chronos/internal/obs"
	"chronos/internal/tenant"
)

// Fleet-exact tenant budgets. With escrow enabled, exactly one replica — the
// ring owner of the tenant key "tenant:<name>" — holds a tenant's
// authoritative pool. The owner debits it directly (WAL-logged when a Store
// is configured); every other replica debits a local lock-free Lease funded
// by escrow grants leased from the owner over POST /v1/escrow/lease. Because
// a grant debits the pool before the lease is funded, the budget spendable
// anywhere in the fleet never exceeds the configured pool budget — the
// over-commit window of the old per-replica approximation (N replicas, each
// with a full copy of the pool) is gone by construction.
//
// The serving path stays lock-free: a local lease debit is one CAS. Owner
// round trips happen only when a lease runs low (a synchronous top-up, traced
// as the escrow stage, which also reports the spend since the last one) and
// once at shutdown, when the holder drains its leases and returns them.

// tenantKeyPrefix namespaces tenant ownership keys on the plan-key ring.
const tenantKeyPrefix = "tenant:"

// escrowPath is the internal lease API every replica serves.
const escrowPath = "/v1/escrow/lease"

// escrowLeaseRequest is the wire form of one lease call: acknowledge spent
// and ask for want more escrow, or end the lease (release), returning the
// unspent level the holder drained from it. A release ignores spent and want.
type escrowLeaseRequest struct {
	Tenant string `json:"tenant"`
	// Holder is the requesting replica's self URL — the lease identity the
	// owner tracks.
	Holder  string  `json:"holder"`
	Spent   float64 `json:"spent,omitempty"`
	Want    float64 `json:"want,omitempty"`
	Release bool    `json:"release,omitempty"`
	Unspent float64 `json:"unspent,omitempty"`
}

type escrowLeaseResponse struct {
	// Granted is the escrow actually debited from the pool for this lease —
	// possibly less than want when the pool is low, zero when dry.
	Granted float64 `json:"granted"`
	// PoolRemaining is the owner pool's post-grant level.
	PoolRemaining float64 `json:"poolRemaining"`
}

// escrowManager is one replica's escrow state: the owner-side ledger for
// tenants this replica owns, and the holder-side leases for tenants it does
// not. The ring is consulted per request, so ownership follows SetRing
// reloads without any manager-side swap.
type escrowManager struct {
	srv *Server
	led *tenant.EscrowLedger

	mu     sync.Mutex
	leases map[string]*tenant.Lease // holder side, by tenant name

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

func newEscrowManager(s *Server, led *tenant.EscrowLedger) *escrowManager {
	return &escrowManager{
		srv:    s,
		led:    led,
		leases: make(map[string]*tenant.Lease),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// ownsTenant reports whether this replica is the tenant's pool owner (true
// whenever sharding is off: a solo replica owns everything).
func (m *escrowManager) ownsTenant(name string) bool { return m.tenantOwner(name) == "" }

// tenantOwner resolves the tenant's pool owner: "" means this replica (or
// sharding is off); otherwise it is the peer's base URL. A dead owner stays
// the owner: only its pool has seen the tenant's debits, so while its
// breaker is open leaseCall fails and this replica refuses instead of
// spending a pool of its own.
func (m *escrowManager) tenantOwner(name string) string {
	rs := m.srv.ringSt.Load()
	if rs == nil {
		return ""
	}
	if owner, _ := rs.ring.Owner(tenantKeyPrefix + name); owner != rs.self {
		return owner
	}
	return ""
}

// lease returns the holder-side lease for tenant, creating it on first use.
func (m *escrowManager) lease(name string) *tenant.Lease {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.leases[name]
	if !ok {
		l = &tenant.Lease{}
		m.leases[name] = l
	}
	return l
}

// leaseTarget is the escrow a holder aims to keep on hand: a fraction of the
// tenant's total budget, so N holders plus the owner cannot strand most of
// the pool inside idle leases. Capped at half a Lease's capacity because a
// dry-lease top-up may land a whole target on top of a nearly full one; past
// the cap a holder would be granted escrow its lease cannot represent.
func (m *escrowManager) leaseTarget(pool *tenant.Pool) float64 {
	return min(pool.Limits().Budget*escrowLeaseFraction, tenant.MaxLeaseLevel/2)
}

// budgetFor returns the debit interface the serving path uses for one
// admission request: the WAL-logged authoritative pool when this replica
// owns the tenant, the local lease (with synchronous owner top-ups) when it
// does not.
func (m *escrowManager) budgetFor(ctx context.Context, name string, pool *tenant.Pool) budgeter {
	owner := m.tenantOwner(name)
	if owner == "" {
		return &ownerBudget{led: m.led, name: name, pool: pool}
	}
	return &leaseBudget{m: m, ctx: ctx, name: name, owner: owner, pool: pool, lease: m.lease(name)}
}

// budgeter is the serving path's debit interface. Remaining is the budget a
// plan may be squeezed into; TryDebit is the atomic admit-time deduction.
// *tenant.Pool satisfies it (the escrow-off legacy path).
type budgeter interface {
	Remaining() float64
	TryDebit(cost float64) (ok bool, remaining float64)
}

// ownerBudget debits the authoritative pool through the escrow ledger, so
// every owner-side debit shares the WAL with grants and releases.
type ownerBudget struct {
	led  *tenant.EscrowLedger
	name string
	pool *tenant.Pool
}

func (b *ownerBudget) Remaining() float64 { return b.pool.Remaining() }

func (b *ownerBudget) TryDebit(cost float64) (bool, float64) {
	return b.led.DebitLocal(b.name, cost)
}

// leaseBudget debits the holder-side lease, topping it up synchronously from
// the owner when it runs dry. A failed top-up (owner unreachable, pool dry)
// fails the debit — the fleet under-admits during an owner outage, it never
// over-commits.
type leaseBudget struct {
	m     *escrowManager
	ctx   context.Context
	name  string
	owner string
	pool  *tenant.Pool
	lease *tenant.Lease
}

func (b *leaseBudget) Remaining() float64 {
	lvl := b.lease.Level()
	// Top up before reporting a nearly-dry lease, so the admit path squeezes
	// plans against real fleet-wide headroom, not lease-refill timing.
	if target := b.m.leaseTarget(b.pool); lvl < target/2 {
		if b.m.topUp(b.ctx, b.name, b.owner, b.pool, b.lease, target-lvl) {
			lvl = b.lease.Level()
		}
	}
	return lvl
}

func (b *leaseBudget) TryDebit(cost float64) (bool, float64) {
	if ok, rem := b.lease.TryDebit(cost); ok {
		return true, rem
	}
	want := b.m.leaseTarget(b.pool)
	if cost > want {
		want = cost
	}
	if !b.m.topUp(b.ctx, b.name, b.owner, b.pool, b.lease, want) {
		return false, b.lease.Level()
	}
	return b.lease.TryDebit(cost)
}

// topUp performs one synchronous lease call to the owner: report the spend
// accumulated since the last call, ask for want more escrow, fund the lease
// with whatever was granted. Returns false when nothing was granted (owner
// unreachable, circuit open, or pool dry).
func (m *escrowManager) topUp(ctx context.Context, name, owner string, pool *tenant.Pool, lease *tenant.Lease, want float64) bool {
	tr := obs.FromContext(ctx)
	start := time.Now()
	defer func() { tr.Observe(obs.StageEscrow, time.Since(start)) }()
	resp, ok := m.leaseCall(ctx, owner, escrowLeaseRequest{
		Tenant: name,
		Spent:  lease.TakeSpent(),
		Want:   want,
	}, lease)
	if !ok || resp.Granted <= 0 {
		return false
	}
	lease.Fund(resp.Granted)
	m.srv.metrics.escrowTopups.inc(name)
	return true
}

// leaseCall issues one POST /v1/escrow/lease to the owner through
// peerState.call, so a dead owner costs one timeout per breaker cooldown, not
// one per admit. ok is false unless the owner answered 200 with a decodable
// grant; the spent amount inside req is then refunded to the lease's
// unreported accumulator, so a lost report is carried by the next call
// instead of dropped.
func (m *escrowManager) leaseCall(ctx context.Context, owner string, req escrowLeaseRequest, lease *tenant.Lease) (out escrowLeaseResponse, ok bool) {
	defer func() {
		if !ok {
			lease.Refund(req.Spent)
		}
	}()
	rs := m.srv.ringSt.Load()
	if rs == nil {
		return out, false
	}
	peer := rs.peers[owner]
	if peer == nil {
		return out, false
	}
	req.Holder = rs.self
	body, err := json.Marshal(req)
	if err != nil {
		return out, false
	}
	ans, outcome := peer.call(ctx, http.MethodPost, escrowPath, body)
	if outcome != peerAnswered || ans.status != http.StatusOK {
		return out, false
	}
	return out, json.Unmarshal(ans.body, &out) == nil
}

// handleEscrowLease serves POST /v1/escrow/lease: the owner side of the
// escrow protocol. Non-owners answer 409 with code not_owner so a holder
// racing a membership reload re-resolves instead of splitting a pool across
// two owners. A holder that is not another member of the ring is a 400 (so a
// server without a ring grants nothing): nobody would ever release its lease,
// and one such request could drain a pool for good.
// That fails closed against a stray caller; it is not authentication — the
// holder is whatever URL the body claims.
func (s *Server) handleEscrowLease(w http.ResponseWriter, r *http.Request) {
	if s.escrow == nil {
		s.apiError(w, r, http.StatusNotFound, "escrow accounting is not enabled")
		return
	}
	var req escrowLeaseRequest
	if !s.decode(w, r, &req) {
		return
	}
	tr := obs.FromContext(r.Context())
	tr.SetTenant(req.Tenant)
	if _, ok := s.lookupPool(w, r, req.Tenant); !ok {
		return
	}
	if !s.escrow.ownsTenant(req.Tenant) {
		s.apiError(w, r, http.StatusConflict, "this replica does not own tenant %q", req.Tenant)
		return
	}
	if rs := s.ringSt.Load(); rs == nil || rs.peers[req.Holder] == nil {
		s.apiError(w, r, http.StatusBadRequest, "holder %q is not another member of the ring", req.Holder)
		return
	}
	var out escrowLeaseResponse
	var err error
	if req.Release {
		out.PoolRemaining, err = s.escrow.led.Release(req.Tenant, req.Holder, req.Unspent)
	} else {
		out.Granted, out.PoolRemaining, err = s.escrow.led.Grant(req.Tenant, req.Holder, req.Spent, req.Want)
	}
	if err != nil {
		s.apiError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	if out.Granted > 0 {
		s.metrics.escrowGrants.inc(req.Tenant)
	}
	s.writeJSON(w, r, http.StatusOK, out)
}

// run is the escrow background loop: periodic snapshot compaction, and a
// check that the WAL is still taking appends.
func (m *escrowManager) run() {
	defer close(m.done)
	snapshot := time.NewTicker(escrowSnapshotInterval)
	defer snapshot.Stop()
	var walFailsSeen uint64
	for {
		select {
		case <-m.stop:
			return
		case <-snapshot.C:
			// A failed WAL append cannot be rolled back (the ledger mutated
			// before it logged), so silent loss is the one unacceptable
			// outcome: latch-check here and shout.
			if fails, lastErr := m.led.WALFailures(); fails > walFailsSeen {
				walFailsSeen = fails
				m.srv.logOp().Error("escrow WAL appends failing; a restart would restore stale budget levels",
					"failures", fails, "error", lastErr.Error())
			}
			if err := m.led.Compact(); err != nil {
				m.srv.logOp().Error("escrow snapshot failed", "error", err.Error())
			}
		}
	}
}

// shutdown stops the loop and releases every holder-side lease back to its
// owner (drained in one swap, so the owner credits exactly what this
// replica still holds), then compacts the owner-side state into the snapshot
// so the next boot replays nothing. A release the owner never hears of
// forfeits the drained escrow: the fleet under-admits, it never over-commits.
func (m *escrowManager) shutdown() {
	m.stopOnce.Do(func() {
		close(m.stop)
		<-m.done
		ctx, cancel := context.WithTimeout(context.Background(), m.srv.cfg.ForwardTimeout)
		defer cancel()
		m.mu.Lock()
		leases := make(map[string]*tenant.Lease, len(m.leases))
		for name, l := range m.leases {
			leases[name] = l
		}
		m.mu.Unlock()
		for name, lease := range leases {
			owner := m.tenantOwner(name)
			if owner == "" {
				continue
			}
			_, _ = m.leaseCall(ctx, owner, escrowLeaseRequest{
				Tenant:  name,
				Release: true,
				Unspent: lease.Drain(),
			}, lease)
		}
		if err := m.led.Compact(); err != nil {
			m.srv.logOp().Error("escrow final snapshot failed", "error", err.Error())
		}
	})
}

// outstanding snapshots, for /metrics, the escrow this replica has out on
// lease per tenant it owns.
func (m *escrowManager) outstanding(reg *tenant.Registry) map[string]float64 {
	owed := make(map[string]float64)
	for _, p := range reg.Pools() {
		if m.ownsTenant(p.Name()) {
			_, owed[p.Name()] = m.led.Outstanding(p.Name())
		}
	}
	return owed
}

// leaseLevels snapshots, for /metrics, this replica's holder-side lease
// levels per tenant.
func (m *escrowManager) leaseLevels() map[string]float64 {
	levels := make(map[string]float64)
	m.mu.Lock()
	for name, l := range m.leases {
		levels[name] = l.Level()
	}
	m.mu.Unlock()
	return levels
}
