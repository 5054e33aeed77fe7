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

func TestEscrowRejectsBadInput(t *testing.T) {
	e, reg := newTestLedger(t, 100, nil)
	if ok, _ := e.DebitLocal("nope", 1); ok {
		t.Error("unknown tenant debited")
	}
	if ok, rem := e.DebitLocal("etl", math.NaN()); ok || rem != 100 {
		t.Errorf("DebitLocal(NaN) = (%v, %v), want (false, 100)", ok, rem)
	}
	if ok, rem := e.DebitLocal("etl", 101); ok || rem != 100 {
		t.Errorf("DebitLocal(101) = (%v, %v), want (false, 100)", ok, rem)
	}
	if got := reg.Get("etl").Remaining(); got != 100 {
		t.Errorf("pool remaining = %v after refused debits, want 100", got)
	}
}

// TestEscrowConcurrentDebitsNeverOvercommit is the core invariant: the sum
// of all debits can never exceed the pool budget.
func TestEscrowConcurrentDebitsNeverOvercommit(t *testing.T) {
	const budget = 1000.0
	e, _ := newTestLedger(t, budget, nil)
	var mu sync.Mutex
	var total float64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if ok, _ := e.DebitLocal("etl", 1.5); ok {
					mu.Lock()
					total += 1.5
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if total > budget+1e-6 {
		t.Fatalf("handed out %v machine-seconds from a %v pool", total, budget)
	}
	if total < budget-1.5 {
		t.Fatalf("handed out %v machine-seconds from a %v pool that 1,600 debits of 1.5 should drain", total, budget)
	}
}

func TestEscrowRebaseSharedLedgerUntouched(t *testing.T) {
	old := mustRegistry(t, map[string]Limits{"etl": {Budget: 100}})
	e := NewEscrowLedger(old, nil)
	e.DebitLocal("etl", 40)

	// Same budget shape: Rebase shares the bucket, which already sits at 60,
	// and later debits land in it.
	fresh := mustRegistry(t, map[string]Limits{"etl": {Budget: 100}})
	fresh.Rebase(old)
	e.Rebase(fresh)
	if got := fresh.Get("etl").Remaining(); got != 60 {
		t.Errorf("carried pool remaining = %v, want 60", got)
	}
	if ok, rem := e.DebitLocal("etl", 10); !ok || rem != 50 {
		t.Errorf("debit after the reload = (%v, %v), want (true, 50)", ok, rem)
	}
}

func TestEscrowRebaseDropsVanishedTenants(t *testing.T) {
	old := mustRegistry(t, map[string]Limits{"etl": {Budget: 100}})
	e := NewEscrowLedger(old, nil)
	fresh := mustRegistry(t, map[string]Limits{"other": {Budget: 10}})
	fresh.Rebase(old)
	e.Rebase(fresh)
	if ok, _ := e.DebitLocal("etl", 1); ok {
		t.Error("a tenant the reload dropped was debited")
	}
	if ok, rem := e.DebitLocal("other", 1); !ok || rem != 9 {
		t.Errorf("debit of the reloaded tenant = (%v, %v), want (true, 9)", ok, rem)
	}
}
