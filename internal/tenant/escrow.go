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
//   - A lease lives until its holder releases it. The release credits back
//     what the holder drained from its lease, never more than the escrow
//     outstanding, so a holder that crashed and restarted returns only what
//     it holds now. The escrow a crashed holder lost stays forfeited: the
//     fleet under-admits by at most one lease per crash, never over-admits.
package tenant

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

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
	leases map[leaseKey]float64 // outstanding escrow by holder
	store  *Store               // nil: exact but not durable
}

// NewEscrowLedger builds a ledger over reg. store may be nil (no
// durability). Leases do not expire; a trailing argument, which once set
// their lifetime, is accepted and ignored so existing callers compile.
func NewEscrowLedger(reg *Registry, store *Store, _ ...time.Duration) *EscrowLedger {
	return &EscrowLedger{reg: reg, leases: make(map[leaseKey]float64), store: store}
}

// pool resolves tenant against the live registry under e.mu.
func (e *EscrowLedger) pool(tenant string) (*Pool, error) {
	p := e.reg.Get(tenant)
	if p == nil {
		return nil, fmt.Errorf("tenant: unknown pool %q", tenant)
	}
	return p, nil
}

// leaseArgs rejects what no lease call may carry: an anonymous holder, or an
// amount that is negative or NaN.
func leaseArgs(holder string, amounts ...float64) error {
	if holder == "" {
		return fmt.Errorf("tenant: escrow holder must be non-empty")
	}
	for _, a := range amounts {
		if a < 0 || math.IsNaN(a) {
			return fmt.Errorf("tenant: escrow amounts must be non-negative")
		}
	}
	return nil
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
// lease. spent is the holder's debits since its last report and is
// acknowledged first (shrinking the outstanding escrow), so one round trip
// both settles and tops up. granted may be zero when the pool is dry.
func (e *EscrowLedger) Grant(tenant, holder string, spent, want float64) (granted, poolRemaining float64, err error) {
	if err := leaseArgs(holder, spent, want); err != nil {
		return 0, 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	p, err := e.pool(tenant)
	if err != nil {
		return 0, 0, err
	}
	k := leaseKey{tenant, holder}
	escrow := e.leases[k]
	// A holder can report more spend than this owner tracks (its lease was
	// funded by a previous owner of the tenant, or by a grant whose WAL
	// record a crash tore off); never let the report drive escrow negative.
	if ack := min(spent, escrow); ack > 0 {
		escrow -= ack
		_ = e.store.Append(Record{Op: OpSpent, Tenant: tenant, Holder: holder, Amount: ack})
	}
	granted, poolRemaining = p.DebitUpTo(want)
	if granted > 0 {
		escrow += granted
		_ = e.store.Append(Record{Op: OpGrant, Tenant: tenant, Holder: holder, Amount: granted})
	}
	e.leases[k] = escrow
	return granted, poolRemaining, nil
}

// Release ends holder's lease and credits the pool with unspent, the level
// the holder drained from its lease, capped at the escrow outstanding. The
// cap is what keeps a restarted holder honest: it can return only what it
// holds now, never the budget it spent, unreported, before it crashed. The
// rest of the escrow is forfeited as spent.
func (e *EscrowLedger) Release(tenant, holder string, unspent float64) (poolRemaining float64, err error) {
	if err := leaseArgs(holder, unspent); err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	p, err := e.pool(tenant)
	if err != nil {
		return 0, err
	}
	k := leaseKey{tenant, holder}
	if escrow, ok := e.leases[k]; ok {
		if credit := min(unspent, escrow); credit > 0 {
			p.Credit(credit)
			_ = e.store.Append(Record{Op: OpCredit, Tenant: tenant, Amount: credit})
		}
		delete(e.leases, k)
		_ = e.store.Append(Record{Op: OpRelease, Tenant: tenant, Holder: holder})
	}
	return p.Remaining(), nil
}

// Outstanding returns the lease count and summed escrow for tenant.
func (e *EscrowLedger) Outstanding(tenant string) (holders int, escrow float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for k, g := range e.leases {
		if k.tenant == tenant {
			holders++
			escrow += g
		}
	}
	return holders, escrow
}

// Restore loads the recovered store state into the live registry: pool
// levels are clamped to the (possibly reconfigured) budgets and outstanding
// leases resume. Call once at boot, before serving. Tenants present in the
// state but absent from the registry are dropped.
func (e *EscrowLedger) Restore(state Snapshot) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for name, level := range state.Pools {
		if p := e.reg.Get(name); p != nil {
			p.SetLevel(level)
		}
	}
	for _, l := range state.Leases {
		if e.reg.Get(l.Tenant) != nil && l.Escrow > 0 {
			e.leases[leaseKey{l.Tenant, l.Holder}] = l.Escrow
		}
	}
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
		leases = append(leases, LeaseRecord{Tenant: k.tenant, Holder: k.holder, Escrow: g})
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
		reserve[k.tenant] += g
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

// Drain atomically empties the lease and returns the level it held: the
// unspent escrow a release hands back. A debit racing it either lands first
// or finds the lease dry.
func (l *Lease) Drain() float64 {
	return float64(l.level.Swap(0)) / leaseMicros
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
