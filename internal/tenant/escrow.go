// Escrow ledger: the one debit path of a tenant's pool. A tenant's admits are
// decided only on its pool owner — the ring owner of the tenant key, or the
// only replica when there is no ring — and every debit there goes through
// EscrowLedger.DebitLocal, WAL-logged when a Store is configured. No other
// replica holds any share of the pool, so the budget spent anywhere in the
// fleet never exceeds the configured budget.
//
// The name is older than that rule: the ledger once also escrowed parts of a
// pool into leases that other replicas spent. Data dirs from then still
// open. Their lease records fold into pool levels (a grant debited the pool,
// a credit returned to it), and escrow still outstanding counts as spent,
// because the holder that held it can no longer return it.
package tenant

import (
	"sync"
	"time"
)

// EscrowLedger is the owner-side debit path for every tenant pool of one
// replica. All methods are safe for concurrent use.
//
// Locking: every debit appends its WAL record while still holding e.mu, and
// Compact holds e.mu across both the state capture and the store write. That
// single ordering (e.mu, then the store's own lock) is what makes recovery
// bit-exact: no record can slip between "folded into the snapshot" and
// "survives in the truncated WAL", so boot replay applies each debit exactly
// once.
type EscrowLedger struct {
	mu    sync.Mutex
	reg   *Registry
	store *Store // nil: exact but not durable
}

// NewEscrowLedger builds a ledger over reg. store may be nil (no
// durability). A trailing argument, which once set a lease lifetime, is
// accepted and ignored so existing callers compile.
func NewEscrowLedger(reg *Registry, store *Store, _ ...time.Duration) *EscrowLedger {
	return &EscrowLedger{reg: reg, store: store}
}

// DebitLocal is the owner's serving debit: authoritative, WAL-logged.
func (e *EscrowLedger) DebitLocal(tenant string, cost float64) (ok bool, remaining float64) {
	e.mu.Lock()
	p := e.reg.Get(tenant)
	if p == nil {
		e.mu.Unlock()
		return false, 0
	}
	ok, remaining = p.TryDebit(cost)
	if ok && cost > 0 {
		// Under e.mu: a concurrent Compact must never snapshot the
		// post-debit level and then leave this record alive in the WAL (boot
		// would apply the debit twice).
		_ = e.store.Append(Record{Op: OpDebit, Tenant: tenant, Amount: cost})
	}
	e.mu.Unlock()
	return ok, remaining
}

// Restore loads the recovered store state into the live registry: pool
// levels are clamped to the (possibly reconfigured) budgets. Call once at
// boot, before serving. Tenants present in the state but absent from the
// registry are dropped.
func (e *EscrowLedger) Restore(state Snapshot) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for name, level := range state.Pools {
		if p := e.reg.Get(name); p != nil {
			p.SetLevel(level)
		}
	}
}

// Compact snapshots every pool level into the store and truncates the WAL.
// e.mu is held across both the capture and the store write: because every
// debit appends its WAL record under e.mu too, no debit can land between
// "state captured" and "WAL truncated" — the snapshot's sequence number
// exactly covers the records it folded in, and nothing else is lost.
func (e *EscrowLedger) Compact() error {
	if e.store == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	pools := make(map[string]float64, e.reg.Len())
	for _, p := range e.reg.Pools() {
		pools[p.Name()] = p.Remaining()
	}
	return e.store.Compact(pools)
}

// WALFailures reports how many ledger appends the store has failed to
// persist, and the most recent error. Nonzero means recovered state can be
// stale (spent budget resurrected at the next boot); the serving layer
// surfaces it as a health condition. A store-less ledger reports zero.
func (e *EscrowLedger) WALFailures() (uint64, error) {
	return e.store.AppendFailures()
}

// Rebase moves the ledger onto a reloaded registry, whose pools carry their
// levels across the reload as Registry.Rebase decided.
func (e *EscrowLedger) Rebase(fresh *Registry) {
	e.mu.Lock()
	e.reg = fresh
	e.mu.Unlock()
}
