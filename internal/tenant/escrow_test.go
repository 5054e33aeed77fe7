package tenant

import (
	"math"
	"sync"
	"testing"
)

func newTestLedger(t *testing.T, budget float64, store *Store) (*EscrowLedger, *Registry) {
	t.Helper()
	reg := mustRegistry(t, map[string]Limits{"etl": {Budget: budget}})
	return NewEscrowLedger(reg, store), reg
}

func TestEscrowGrantDebitsPoolFirst(t *testing.T) {
	e, reg := newTestLedger(t, 100, nil)
	granted, remaining, err := e.Grant("etl", "http://h1", 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if granted != 30 || remaining != 70 {
		t.Fatalf("Grant = (%v, %v), want (30, 70)", granted, remaining)
	}
	if got := reg.Get("etl").Remaining(); got != 70 {
		t.Errorf("pool remaining = %v, want 70", got)
	}
	holders, escrow := e.Outstanding("etl")
	if holders != 1 || escrow != 30 {
		t.Errorf("Outstanding = (%d, %v), want (1, 30)", holders, escrow)
	}
}

func TestEscrowGrantPartialWhenPoolLow(t *testing.T) {
	e, _ := newTestLedger(t, 100, nil)
	if g, _, _ := e.Grant("etl", "h1", 0, 80); g != 80 {
		t.Fatalf("first grant = %v, want 80", g)
	}
	// Only 20 left: a 50 request gets the remainder, never more.
	if g, rem, _ := e.Grant("etl", "h2", 0, 50); g != 20 || rem != 0 {
		t.Fatalf("second grant = (%v, %v), want (20, 0)", g, rem)
	}
	if g, _, _ := e.Grant("etl", "h3", 0, 10); g != 0 {
		t.Fatalf("dry-pool grant = %v, want 0", g)
	}
}

func TestEscrowSpentShrinksOutstandingNotPool(t *testing.T) {
	e, reg := newTestLedger(t, 100, nil)
	_, _, _ = e.Grant("etl", "h1", 0, 40)
	// Report 15 spent, ask for nothing more.
	if _, _, err := e.Grant("etl", "h1", 15, 0); err != nil {
		t.Fatal(err)
	}
	if _, escrow := e.Outstanding("etl"); escrow != 25 {
		t.Errorf("outstanding escrow = %v, want 25", escrow)
	}
	if got := reg.Get("etl").Remaining(); got != 60 {
		t.Errorf("pool remaining = %v, want 60 (spent reports must not credit the pool)", got)
	}
}

func TestEscrowReleaseCreditsUnspent(t *testing.T) {
	e, reg := newTestLedger(t, 100, nil)
	_, _, _ = e.Grant("etl", "h1", 0, 40)
	// Spend 10, release the rest: 30 returns to the pool.
	if rem, err := e.Release("etl", "h1", 30); err != nil || rem != 90 {
		t.Fatalf("release = (rem %v, err %v), want (90, nil)", rem, err)
	}
	if got := reg.Get("etl").Remaining(); got != 90 {
		t.Errorf("pool remaining = %v, want 90", got)
	}
	if holders, _ := e.Outstanding("etl"); holders != 0 {
		t.Errorf("lease survived release")
	}
}

// TestEscrowRestartedHolderForfeitsLostEscrow: a holder spends 60 of a
// 100 grant without reporting it, crashes, restarts under the same URL,
// takes a new grant, spends 10 of it and releases. The release returns the
// 90 it holds; the 40 it lost in the crash stays forfeited. Crediting the
// owner's outstanding escrow instead (what the old "spent" release did)
// returned 190 and put 60 spent machine-seconds back in the pool.
func TestEscrowRestartedHolderForfeitsLostEscrow(t *testing.T) {
	const budget = 1000.0
	e, reg := newTestLedger(t, budget, nil)
	_, _, _ = e.Grant("etl", "h1", 0, 100) // first life: 60 of it spent, unreported
	_, _, _ = e.Grant("etl", "h1", 0, 100) // second life, same URL: 10 spent
	if _, err := e.Release("etl", "h1", 90); err != nil {
		t.Fatal(err)
	}
	const trueSpend = 70.0
	pool := reg.Get("etl").Remaining()
	_, escrow := e.Outstanding("etl")
	if pool+escrow > budget-trueSpend {
		t.Fatalf("pool %g + outstanding %g exceeds budget %g - true spend %g", pool, escrow, budget, trueSpend)
	}
	if pool != 890 || escrow != 0 {
		t.Errorf("after release: pool %g, outstanding %g; want 890, 0", pool, escrow)
	}
}

func TestEscrowRejectsBadInput(t *testing.T) {
	e, _ := newTestLedger(t, 100, nil)
	if _, _, err := e.Grant("nope", "h1", 0, 1); err == nil {
		t.Error("unknown tenant accepted")
	}
	if _, _, err := e.Grant("etl", "", 0, 1); err == nil {
		t.Error("empty holder accepted")
	}
	if _, _, err := e.Grant("etl", "h1", -1, 0); err == nil {
		t.Error("negative spent accepted")
	}
	if _, _, err := e.Grant("etl", "h1", 0, math.NaN()); err == nil {
		t.Error("NaN want accepted")
	}
}

// TestEscrowConcurrentGrantsNeverOvercommit is the core invariant: the sum
// of all grants plus owner-local debits can never exceed the pool budget.
func TestEscrowConcurrentGrantsNeverOvercommit(t *testing.T) {
	const budget = 1000.0
	e, _ := newTestLedger(t, budget, nil)
	var mu sync.Mutex
	var total float64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			holder := string(rune('a' + w))
			for i := 0; i < 200; i++ {
				var got float64
				if i%3 == 0 {
					if ok, _ := e.DebitLocal("etl", 1.5); ok {
						got = 1.5
					}
				} else {
					g, _, _ := e.Grant("etl", holder, 0, 2)
					got = g
				}
				mu.Lock()
				total += got
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if total > budget+1e-6 {
		t.Fatalf("handed out %v machine-seconds from a %v pool", total, budget)
	}
}

func TestEscrowRebaseFreshLedgerReReservesLeases(t *testing.T) {
	old := mustRegistry(t, map[string]Limits{"etl": {Budget: 100}})
	e := NewEscrowLedger(old, nil)
	_, _, _ = e.Grant("etl", "h1", 0, 40)

	// Budget reshaped: the reloaded pool starts full at 200 and must have
	// the outstanding 40 re-debited, or the fleet could spend 200 + 40.
	fresh := mustRegistry(t, map[string]Limits{"etl": {Budget: 200}})
	fresh.Rebase(old)
	e.Rebase(old, fresh)
	if got := fresh.Get("etl").Remaining(); got != 160 {
		t.Errorf("reshaped pool remaining = %v, want 160", got)
	}
	if _, escrow := e.Outstanding("etl"); escrow != 40 {
		t.Errorf("outstanding escrow = %v, want 40", escrow)
	}
}

func TestEscrowRebaseSharedLedgerUntouched(t *testing.T) {
	old := mustRegistry(t, map[string]Limits{"etl": {Budget: 100}})
	e := NewEscrowLedger(old, nil)
	_, _, _ = e.Grant("etl", "h1", 0, 40)

	// Same budget shape: Rebase shares the bucket, which already sits at 60.
	fresh := mustRegistry(t, map[string]Limits{"etl": {Budget: 100}})
	fresh.Rebase(old)
	e.Rebase(old, fresh)
	if got := fresh.Get("etl").Remaining(); got != 60 {
		t.Errorf("carried pool remaining = %v, want 60 (no double re-reserve)", got)
	}
}

func TestEscrowRebaseDropsVanishedTenants(t *testing.T) {
	old := mustRegistry(t, map[string]Limits{"etl": {Budget: 100}})
	e := NewEscrowLedger(old, nil)
	_, _, _ = e.Grant("etl", "h1", 0, 40)
	fresh := mustRegistry(t, map[string]Limits{"other": {Budget: 10}})
	fresh.Rebase(old)
	e.Rebase(old, fresh)
	if holders, _ := e.Outstanding("etl"); holders != 0 {
		t.Errorf("vanished tenant kept %d leases", holders)
	}
}

// --- holder-side lease ----------------------------------------------------

func TestLeaseDebitAndSpent(t *testing.T) {
	var l Lease
	l.Fund(10)
	ok, rem := l.TryDebit(4)
	if !ok || rem != 6 {
		t.Fatalf("TryDebit = (%v, %v), want (true, 6)", ok, rem)
	}
	if ok, _ := l.TryDebit(7); ok {
		t.Fatal("overdraft allowed")
	}
	if got := l.TakeSpent(); got != 4 {
		t.Errorf("TakeSpent = %v, want 4", got)
	}
	if got := l.TakeSpent(); got != 0 {
		t.Errorf("second TakeSpent = %v, want 0", got)
	}
	l.Refund(4)
	if got := l.TakeSpent(); got != 4 {
		t.Errorf("refunded TakeSpent = %v, want 4", got)
	}
}

func TestLeaseDrain(t *testing.T) {
	var l Lease
	l.Fund(10)
	l.TryDebit(4)
	if got := l.Drain(); got != 6 {
		t.Errorf("Drain = %v, want 6", got)
	}
	if ok, _ := l.TryDebit(1e-6); ok || l.Level() != 0 {
		t.Errorf("a drained lease still pays: level %v", l.Level())
	}
}

func TestLeaseDebitRoundsUp(t *testing.T) {
	var l Lease
	l.Fund(1)
	// A sub-micro cost still charges one micro machine-second.
	if ok, rem := l.TryDebit(1e-9); !ok || rem >= 1 {
		t.Fatalf("TryDebit(1e-9) = (%v, %v)", ok, rem)
	}
}

func TestLeaseConcurrentDebitNeverOverdraws(t *testing.T) {
	var l Lease
	l.Fund(100)
	var wg sync.WaitGroup
	var mu sync.Mutex
	spent := 0.0
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if ok, _ := l.TryDebit(0.05); ok {
					mu.Lock()
					spent += 0.05
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if spent > 100+1e-6 {
		t.Fatalf("spent %v from a 100 lease", spent)
	}
	if lvl := l.Level(); lvl < 0 {
		t.Fatalf("lease level went negative: %v", lvl)
	}
}
