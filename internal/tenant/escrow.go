// Escrow ledger: the fleet-exact budget machinery. One replica — the ring
// owner of the tenant key — is the tenant's pool owner and holds the
// authoritative token bucket. Every other replica debits a local Lease, a
// sub-budget the owner escrowed to it. Because a grant debits the pool
// before the lease exists, the sum of budget spendable anywhere in the fleet
// (pool level + outstanding escrow) never exceeds the configured budget:
// over-commit is impossible by construction, not by synchronization luck.
//
// Conservative accounting rules keep the invariant through every failure:
//
//   - A grant debits the pool first and is WAL-logged; the holder only
//     learns about budget the owner has already given up.
//   - A holder's spent reports shrink its outstanding escrow but never touch
//     the pool (the grant already paid).
//   - A released lease credits back only its unspent escrow.
//   - A reclaimed lease (holder silent past TTL) credits back nothing: the
//     owner cannot know how much of the escrow was spent, so it treats all
//     of it as spent. The fleet under-admits by at most one lease per
//     crashed holder — never over-admits.
package tenant

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultLeaseTTL is the escrow lease lifetime when the serving layer does
// not configure one. Holders renew at one third of it.
const DefaultLeaseTTL = 15 * time.Second

// EscrowLedger is the owner-side escrow state for every tenant this replica
// is authoritative for. All methods are safe for concurrent use.
//
// Locking: every ledger mutation appends its WAL record while still holding
// e.mu, and Compact holds e.mu across both the state capture and the store
// write. That single ordering (e.mu, then the store's own lock) is what makes
// recovery bit-exact: no record can slip between "folded into the snapshot"
// and "survives in the truncated WAL", so boot replay applies each mutation
// exactly once.
type EscrowLedger struct {
	mu     sync.Mutex
	reg    *Registry
	leases map[leaseKey]*escrowGrant
	store  *Store // nil: exact but not durable
	ttl    time.Duration
	now    func() time.Time
}

// escrowGrant is one holder's outstanding lease as the owner sees it.
type escrowGrant struct {
	escrow float64
	expiry time.Time
}

// NewEscrowLedger builds a ledger over reg. store may be nil (no
// durability); ttl <= 0 means DefaultLeaseTTL.
func NewEscrowLedger(reg *Registry, store *Store, ttl time.Duration) *EscrowLedger {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	return &EscrowLedger{
		reg:    reg,
		leases: make(map[leaseKey]*escrowGrant),
		store:  store,
		ttl:    ttl,
		now:    time.Now,
	}
}

// TTL returns the lease lifetime grants carry.
func (e *EscrowLedger) TTL() time.Duration { return e.ttl }

// pool resolves tenant against the live registry under e.mu.
func (e *EscrowLedger) pool(tenant string) (*Pool, error) {
	p := e.reg.Get(tenant)
	if p == nil {
		return nil, fmt.Errorf("tenant: unknown pool %q", tenant)
	}
	return p, nil
}

// DebitLocal is the owner's own serving debit: authoritative, WAL-logged.
func (e *EscrowLedger) DebitLocal(tenant string, cost float64) (ok bool, remaining float64) {
	e.mu.Lock()
	p, err := e.pool(tenant)
	if err != nil {
		e.mu.Unlock()
		return false, 0
	}
	ok, remaining = p.TryDebit(cost)
	if ok && cost > 0 {
		// Under e.mu, like every other ledger append: a concurrent Compact
		// must never snapshot the post-debit level and then leave this record
		// alive in the WAL (boot would apply the debit twice).
		_ = e.store.Append(Record{Op: OpDebit, Tenant: tenant, Amount: cost})
	}
	e.mu.Unlock()
	return ok, remaining
}

// Grant escrows up to want machine-seconds from tenant's pool into holder's
// lease, extending the lease expiry. spent is the holder's debits since its
// last report and is acknowledged first (shrinking the outstanding escrow),
// so one round trip both settles and tops up. granted may be zero when the
// pool is dry. release ends the lease instead, crediting unspent escrow
// back.
func (e *EscrowLedger) Grant(tenant, holder string, spent, want float64, release bool) (granted, poolRemaining float64, err error) {
	if holder == "" {
		return 0, 0, fmt.Errorf("tenant: escrow holder must be non-empty")
	}
	if spent < 0 || math.IsNaN(spent) || want < 0 || math.IsNaN(want) {
		return 0, 0, fmt.Errorf("tenant: escrow amounts must be non-negative")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	p, err := e.pool(tenant)
	if err != nil {
		return 0, 0, err
	}
	k := leaseKey{tenant, holder}
	g := e.leases[k]

	if spent > 0 && g != nil {
		ack := spent
		if ack > g.escrow {
			// A holder can briefly report more spend than the owner tracks
			// (e.g. the owner reclaimed and re-granted around a partition);
			// never let the report drive escrow negative.
			ack = g.escrow
		}
		g.escrow -= ack
		_ = e.store.Append(Record{Op: OpSpent, Tenant: tenant, Holder: holder, Amount: ack})
	}

	if release {
		if g != nil {
			if g.escrow > 0 {
				p.Credit(g.escrow)
				_ = e.store.Append(Record{Op: OpCredit, Tenant: tenant, Amount: g.escrow})
			}
			delete(e.leases, k)
			_ = e.store.Append(Record{Op: OpRelease, Tenant: tenant, Holder: holder})
		}
		return 0, p.Remaining(), nil
	}

	granted, poolRemaining = p.DebitUpTo(want)
	if g == nil {
		g = &escrowGrant{}
		e.leases[k] = g
	}
	g.escrow += granted
	g.expiry = e.now().Add(e.ttl)
	if granted > 0 {
		_ = e.store.Append(Record{
			Op: OpGrant, Tenant: tenant, Holder: holder,
			Amount: granted, ExpiryUnixNano: g.expiry.UnixNano(),
		})
	} else if g.escrow > 0 {
		// A renewal against a dry pool still extends the lease in memory; it
		// must extend it on disk too, or a restarted owner restores the lease
		// with a stale expiry and reclaims escrow the live holder is spending.
		_ = e.store.Append(Record{
			Op: OpRenew, Tenant: tenant, Holder: holder,
			ExpiryUnixNano: g.expiry.UnixNano(),
		})
	}
	return granted, poolRemaining, nil
}

// Reclaimed describes one lease ended because its holder went silent.
type Reclaimed struct {
	Tenant string
	Holder string
	// Escrow is the outstanding (conservatively forfeited) escrow.
	Escrow float64
}

// ReclaimExpired ends every lease whose expiry has passed. The outstanding
// escrow is treated as spent — no credit — so a holder that died mid-lease
// can never cause over-commit; with a refilling pool the forfeited budget
// grows back.
func (e *EscrowLedger) ReclaimExpired() []Reclaimed {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.now()
	var out []Reclaimed
	for k, g := range e.leases {
		if g.expiry.After(now) {
			continue
		}
		out = append(out, Reclaimed{Tenant: k.tenant, Holder: k.holder, Escrow: g.escrow})
		delete(e.leases, k)
		_ = e.store.Append(Record{Op: OpReclaim, Tenant: k.tenant, Holder: k.holder})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tenant != out[j].Tenant {
			return out[i].Tenant < out[j].Tenant
		}
		return out[i].Holder < out[j].Holder
	})
	return out
}

// Outstanding returns the lease count and summed escrow for tenant.
func (e *EscrowLedger) Outstanding(tenant string) (holders int, escrow float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for k, g := range e.leases {
		if k.tenant == tenant {
			holders++
			escrow += g.escrow
		}
	}
	return holders, escrow
}

// Restore loads the recovered store state into the live registry: pool
// levels are clamped to the (possibly reconfigured) budgets and outstanding
// leases resume with their persisted expiries. Call once at boot, before
// serving. Tenants present in the state but absent from the registry are
// dropped. Returns the leases that were already expired at restore time,
// reclaimed exactly as ReclaimExpired would.
func (e *EscrowLedger) Restore(state Snapshot) []Reclaimed {
	e.mu.Lock()
	for name, level := range state.Pools {
		if p := e.reg.Get(name); p != nil {
			p.SetLevel(level)
		}
	}
	for _, l := range state.Leases {
		if e.reg.Get(l.Tenant) == nil || l.Escrow <= 0 {
			continue
		}
		e.leases[leaseKey{l.Tenant, l.Holder}] = &escrowGrant{
			escrow: l.Escrow,
			expiry: time.Unix(0, l.ExpiryUnixNano),
		}
	}
	e.mu.Unlock()
	return e.ReclaimExpired()
}

// snapshotLocked captures the current pool levels and outstanding leases for
// Compact; the caller holds e.mu.
func (e *EscrowLedger) snapshotLocked() (pools map[string]float64, leases []LeaseRecord) {
	pools = make(map[string]float64, e.reg.Len())
	for _, p := range e.reg.Pools() {
		pools[p.Name()] = p.Remaining()
	}
	leases = make([]LeaseRecord, 0, len(e.leases))
	for k, g := range e.leases {
		leases = append(leases, LeaseRecord{
			Tenant: k.tenant, Holder: k.holder,
			Escrow: g.escrow, ExpiryUnixNano: g.expiry.UnixNano(),
		})
	}
	sort.Slice(leases, func(i, j int) bool {
		if leases[i].Tenant != leases[j].Tenant {
			return leases[i].Tenant < leases[j].Tenant
		}
		return leases[i].Holder < leases[j].Holder
	})
	return pools, leases
}

// Compact snapshots the current state into the store and truncates the WAL.
// e.mu is held across both the capture and the store write: because every
// mutation appends its WAL record under e.mu too, no grant or debit can land
// between "state captured" and "WAL truncated" — the snapshot's sequence
// number exactly covers the records it folded in, and nothing else is lost.
func (e *EscrowLedger) Compact() error {
	if e.store == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	pools, leases := e.snapshotLocked()
	return e.store.Compact(pools, leases)
}

// WALFailures reports how many ledger appends the store has failed to
// persist, and the most recent error. Nonzero means recovered state can be
// stale (spent budget resurrected at the next boot); the serving layer
// surfaces it as a health condition. A nil or store-less ledger reports zero.
func (e *EscrowLedger) WALFailures() (uint64, error) {
	return e.store.AppendFailures()
}

// Rebase moves the ledger onto a reloaded registry. Pools that carried
// their token bucket across the reload (same budget shape — see
// Registry.Rebase) already reflect every grant, so their leases ride along
// untouched. Pools that started fresh (new, or reshaped budget) have full
// buckets that do NOT account for outstanding leases, so the summed escrow
// is re-debited from them — otherwise a reload would double-count leased
// budget: once in the holder's lease and once in the fresh pool. Leases of
// tenants that disappeared are dropped.
func (e *EscrowLedger) Rebase(old, fresh *Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.reg = fresh
	reserve := make(map[string]float64)
	for k, g := range e.leases {
		p := fresh.Get(k.tenant)
		if p == nil {
			delete(e.leases, k)
			continue
		}
		if p.SharesLedger(old.Get(k.tenant)) {
			continue // grants already debited from this bucket
		}
		reserve[k.tenant] += g.escrow
	}
	for name, escrow := range reserve {
		p := fresh.Get(name)
		p.ForceDebit(escrow)
		_ = e.store.Append(Record{Op: OpDebit, Tenant: name, Amount: escrow})
	}
}

// --- holder side ----------------------------------------------------------

// leaseMicros is the Lease fixed-point scale: one micro machine-second.
const leaseMicros = 1e6

// MaxLeaseLevel is the most one Lease can hold, in machine-seconds: MaxInt64
// micro machine-seconds (≈9.2e12). Conversions into the fixed-point scale
// saturate there instead of wrapping negative, and holders size their
// top-ups to stay under it.
const MaxLeaseLevel = math.MaxInt64 / leaseMicros

// saturate converts an amount already in micro machine-seconds to int64,
// stopping at MaxInt64.
func saturate(micros float64) int64 {
	if micros < math.MaxInt64 {
		return int64(micros)
	}
	return math.MaxInt64
}

// addSaturating adds delta >= 0 to v, stopping at MaxInt64.
func addSaturating(v *atomic.Int64, delta int64) {
	for {
		cur := v.Load()
		next := cur + delta
		if next < cur {
			next = math.MaxInt64
		}
		if v.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Lease is the holder-side sub-budget: the lock-free fast path every
// non-owner replica debits against. Levels are fixed-point micro
// machine-seconds in an atomic, so the serving path's debit is one CAS —
// no mutex, no owner round trip.
type Lease struct {
	level atomic.Int64 // remaining, micro machine-seconds
	spent atomic.Int64 // debited since the last owner report
	// debits counts successful TryDebit calls — the lease CAS operations.
	// Batched admission exists to collapse N per-job debits into one; the
	// escrow fleet test reads this counter to prove it actually does.
	debits atomic.Uint64
}

// TryDebit deducts cost if the lease covers it. Costs round up to the next
// micro machine-second, so fixed-point truncation can never under-charge. A
// NaN cost is refused, as Pool.TryDebit refuses it.
func (l *Lease) TryDebit(cost float64) (ok bool, remaining float64) {
	if math.IsNaN(cost) {
		return false, l.Level()
	}
	if cost < 0 {
		cost = 0
	}
	c := saturate(math.Ceil(cost * leaseMicros))
	for {
		cur := l.level.Load()
		if cur < c {
			return false, float64(cur) / leaseMicros
		}
		if l.level.CompareAndSwap(cur, cur-c) {
			l.spent.Add(c)
			l.debits.Add(1)
			return true, float64(cur-c) / leaseMicros
		}
	}
}

// Fund adds a granted amount to the lease.
func (l *Lease) Fund(amount float64) {
	if amount <= 0 || math.IsNaN(amount) {
		return
	}
	addSaturating(&l.level, saturate(amount*leaseMicros))
}

// Level returns the remaining lease budget.
func (l *Lease) Level() float64 {
	return float64(l.level.Load()) / leaseMicros
}

// Debits returns the number of successful TryDebit calls over the lease's
// lifetime.
func (l *Lease) Debits() uint64 {
	return l.debits.Load()
}

// TakeSpent atomically returns and resets the spend accumulated since the
// last call — the amount the next owner report acknowledges. Refund returns
// a taken amount that could not be reported (owner unreachable), so the next
// report carries it instead of losing the acknowledgment.
func (l *Lease) TakeSpent() float64 {
	return float64(l.spent.Swap(0)) / leaseMicros
}

// Refund re-adds an unreported spent amount after a failed owner report.
func (l *Lease) Refund(spent float64) {
	if spent <= 0 || math.IsNaN(spent) {
		return
	}
	addSaturating(&l.spent, saturate(spent*leaseMicros))
}
