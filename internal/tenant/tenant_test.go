package tenant

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func mustRegistry(t *testing.T, limits map[string]Limits) *Registry {
	t.Helper()
	r, err := NewRegistry(limits)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRegistryDefaultsAndLookup(t *testing.T) {
	r := mustRegistry(t, map[string]Limits{
		"etl":    {Budget: 100},
		"ad-hoc": {Budget: 50, Theta: 2e-3, UnitPrice: 3, RMin: 0.5},
	})
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	etl := r.Get("etl")
	if etl == nil {
		t.Fatal("Get(etl) = nil")
	}
	if l := etl.Limits(); l.Theta != DefaultTheta || l.UnitPrice != DefaultUnitPrice {
		t.Errorf("defaults not applied: %+v", l)
	}
	if l := r.Get("ad-hoc").Limits(); l.Theta != 2e-3 || l.UnitPrice != 3 || l.RMin != 0.5 {
		t.Errorf("explicit limits mangled: %+v", l)
	}
	if r.Get("nope") != nil {
		t.Error("Get(nope) should be nil")
	}
	pools := r.Pools()
	if len(pools) != 2 || pools[0].Name() != "ad-hoc" || pools[1].Name() != "etl" {
		t.Errorf("Pools() not sorted by name: %v, %v", pools[0].Name(), pools[1].Name())
	}
}

func TestRegistryValidation(t *testing.T) {
	cases := map[string]Limits{
		"zero budget":     {Budget: 0},
		"negative budget": {Budget: -5},
		"negative refill": {Budget: 10, RefillPerSec: -1},
		"rmin too large":  {Budget: 10, RMin: 1},
		"negative theta":  {Budget: 10, Theta: -1},
	}
	for name, l := range cases {
		if _, err := NewRegistry(map[string]Limits{"t": l}); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
	}
	if _, err := NewRegistry(map[string]Limits{"": {Budget: 10}}); err == nil {
		t.Error("empty pool name: want error, got nil")
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	if r.Get("x") != nil || r.Pools() != nil || r.Len() != 0 {
		t.Error("nil registry accessors should return zero values")
	}
	r.Rebase(nil) // must not panic
}

func TestTryDebitSequential(t *testing.T) {
	p := mustRegistry(t, map[string]Limits{"t": {Budget: 10}}).Get("t")
	if ok, rem := p.TryDebit(4); !ok || rem != 6 {
		t.Fatalf("debit 4: ok=%v rem=%v, want true 6", ok, rem)
	}
	if ok, rem := p.TryDebit(6); !ok || rem != 0 {
		t.Fatalf("debit 6: ok=%v rem=%v, want true 0", ok, rem)
	}
	if ok, _ := p.TryDebit(0.001); ok {
		t.Fatal("debit on empty pool should fail")
	}
	if ok, rem := p.TryDebit(0); !ok || rem != 0 {
		t.Fatalf("zero-cost debit: ok=%v rem=%v, want true 0", ok, rem)
	}
	if ok, rem := p.TryDebit(-5); !ok || rem != 0 {
		t.Fatalf("negative-cost debit: ok=%v rem=%v, want true 0 (clamped)", ok, rem)
	}
}

// TestDebitRefusesNaN: a NaN cost must not reach the level. Before the check
// Pool.TryDebit(NaN) answered ok and left the level NaN, after which the pool
// refused every debit until restart.
func TestDebitRefusesNaN(t *testing.T) {
	p := mustRegistry(t, map[string]Limits{"t": {Budget: 10}}).Get("t")
	if ok, rem := p.TryDebit(math.NaN()); ok || rem != 10 {
		t.Errorf("Pool.TryDebit(NaN) = (%v, %v), want (false, 10)", ok, rem)
	}
	if ok, rem := p.TryDebit(4); !ok || rem != 6 {
		t.Errorf("debit after NaN: ok=%v rem=%v, want true 6", ok, rem)
	}
}

// TestTryDebitConcurrentNoOvercommit hammers one pool from many goroutines
// and asserts the granted total never exceeds the budget: the ledger's core
// invariant.
func TestTryDebitConcurrentNoOvercommit(t *testing.T) {
	const budget = 100.0
	p := mustRegistry(t, map[string]Limits{"t": {Budget: budget}}).Get("t")

	const goroutines = 32
	const perG = 200
	granted := make([]float64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cost := 0.1 + float64(g%7)*0.31
			for i := 0; i < perG; i++ {
				if ok, _ := p.TryDebit(cost); ok {
					granted[g] += cost
				}
			}
		}(g)
	}
	wg.Wait()

	total := 0.0
	for _, v := range granted {
		total += v
	}
	if total > budget*(1+1e-9) {
		t.Fatalf("over-commit: granted %v from a budget of %v", total, budget)
	}
	if total == 0 {
		t.Fatal("nothing was granted")
	}
	if rem := p.Remaining(); rem < 0 {
		t.Fatalf("remaining went negative: %v", rem)
	}
	// Conservation: granted + remaining == budget (up to float accumulation).
	if rem := p.Remaining(); math.Abs(total+rem-budget) > 1e-6 {
		t.Errorf("ledger leak: granted %v + remaining %v != budget %v", total, rem, budget)
	}
}

func TestRefill(t *testing.T) {
	p := mustRegistry(t, map[string]Limits{"t": {Budget: 100, RefillPerSec: 10}}).Get("t")
	clock := p.led.last // start from the ledger's own epoch
	p.led.now = func() time.Time { return clock }

	if ok, _ := p.TryDebit(100); !ok {
		t.Fatal("initial debit should drain the full budget")
	}
	if ok, _ := p.TryDebit(1); ok {
		t.Fatal("empty pool granted a debit")
	}
	clock = clock.Add(2 * time.Second) // +20 machine seconds
	if got := p.Remaining(); math.Abs(got-20) > 1e-9 {
		t.Fatalf("after 2s refill: remaining = %v, want 20", got)
	}
	clock = clock.Add(time.Hour) // refill clamps at capacity
	if got := p.Remaining(); got != 100 {
		t.Fatalf("refill must clamp at budget: remaining = %v, want 100", got)
	}
}

func TestRebase(t *testing.T) {
	old := mustRegistry(t, map[string]Limits{
		"kept":    {Budget: 100},
		"resized": {Budget: 100},
		"dropped": {Budget: 100},
	})
	old.Get("kept").TryDebit(70)
	old.Get("resized").TryDebit(70)

	next := mustRegistry(t, map[string]Limits{
		"kept":    {Budget: 100},
		"resized": {Budget: 40}, // ledger shape changed: starts full
		"fresh":   {Budget: 10},
	})
	next.Rebase(old)

	if got := next.Get("kept").Remaining(); got != 30 {
		t.Errorf("kept pool: remaining = %v, want carried-over 30", got)
	}
	if got := next.Get("resized").Remaining(); got != 40 {
		t.Errorf("resized pool: remaining = %v, want full 40", got)
	}
	if got := next.Get("fresh").Remaining(); got != 10 {
		t.Errorf("fresh pool: remaining = %v, want full 10", got)
	}
}

// TestRebaseSharesLedger pins the hot-reload race fix: requests still
// holding a pre-reload Pool must debit the same bucket the rebased Pool
// reads, so no grant is lost (and no budget reappears) across the swap.
func TestRebaseSharesLedger(t *testing.T) {
	old := mustRegistry(t, map[string]Limits{"kept": {Budget: 100}})
	next := mustRegistry(t, map[string]Limits{"kept": {Budget: 100, RMin: 0.9}})
	next.Rebase(old)

	// A debit through the old handle after the rebase...
	if ok, _ := old.Get("kept").TryDebit(60); !ok {
		t.Fatal("debit through the old pool failed")
	}
	// ...is visible through the new one, and vice versa.
	if got := next.Get("kept").Remaining(); got != 40 {
		t.Fatalf("new pool remaining = %v, want 40 (shared ledger)", got)
	}
	if ok, _ := next.Get("kept").TryDebit(40); !ok {
		t.Fatal("debit through the new pool failed")
	}
	if got := old.Get("kept").Remaining(); got != 0 {
		t.Fatalf("old pool remaining = %v, want 0 (shared ledger)", got)
	}
	// Planning defaults still come from the new declaration.
	if got := next.Get("kept").Limits().RMin; got != 0.9 {
		t.Errorf("rebased pool RMin = %v, want 0.9", got)
	}
}

func TestParse(t *testing.T) {
	r, err := Parse([]byte(`{
		"tenants": [
			{"name": "etl", "budget": 50000, "refillPerSec": 25, "rmin": 0.9},
			{"name": "ad-hoc", "budget": 5000}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if l := r.Get("etl").Limits(); l.RefillPerSec != 25 || l.RMin != 0.9 {
		t.Errorf("etl limits = %+v", l)
	}

	for name, doc := range map[string]string{
		"malformed":  `{not json`,
		"no tenants": `{"tenants": []}`,
		"unnamed":    `{"tenants": [{"budget": 5}]}`,
		"bad budget": `{"tenants": [{"name": "x", "budget": -1}]}`,
	} {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
	}

	_, err = Parse([]byte(`{"tenants": [
		{"name": "dup", "budget": 1}, {"name": "dup", "budget": 2}]}`))
	if !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate names: err = %v, want ErrDuplicate", err)
	}
}

// TestParseRejectsUnknownField: a typo in tenants.json used to load with the
// misspelt field at zero — here RefillPerSec 0 and RMin 0, the setting under
// which admission accepts worthless squeezed plans — and no error.
func TestParseRejectsUnknownField(t *testing.T) {
	for name, doc := range map[string]string{
		"misspelt keys":  `{"tenants":[{"name":"tiny","budget":50,"refilPerSec":5,"rmn":0.5}]}`,
		"top-level key":  `{"tenants":[{"name":"tiny","budget":50}],"defaults":{}}`,
		"trailing data":  `{"tenants":[{"name":"tiny","budget":50}]} {"tenants":[{"name":"tiny","budget":1e9}]}`,
		"trailing brace": `{"tenants":[{"name":"tiny","budget":50}]} }`,
	} {
		if r, err := Parse([]byte(doc)); err == nil {
			t.Errorf("%s: loaded %+v, want an error", name, r.Get("tiny").Limits())
		}
	}
	// Trailing whitespace is not data.
	if _, err := Parse([]byte(`{"tenants":[{"name":"tiny","budget":50,"refillPerSec":5,"rmin":0.5}]}` + "\n")); err != nil {
		t.Errorf("well-formed document: %v", err)
	}
}

func TestLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(`{"tenants": [{"name": "a", "budget": 7}]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	r, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Get("a").Remaining(); got != 7 {
		t.Errorf("remaining = %v, want 7", got)
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file: want error, got nil")
	}
}
