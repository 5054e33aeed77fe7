// Package tenant implements multi-tenant machine-time budget pools for the
// chronosd serving layer. The paper's setting is online: jobs arrive one at
// a time and the operator must decide, under a machine-time budget, whether
// to admit each job and with which speculation plan. A Pool is one named
// budget — a concurrent token-bucket ledger denominated in expected machine
// seconds, with per-tenant planning defaults (theta, unit price, RMin) for
// requests that do not spell out their own economics. A Registry is an
// immutable snapshot of every configured pool; hot reloads build a new
// Registry from the config file and carry live ledgers over with Rebase.
package tenant

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Planning defaults applied to limits that leave the field zero.
const (
	// DefaultTheta is the PoCD/cost tradeoff factor used when a pool does
	// not declare one.
	DefaultTheta = 1e-4
	// DefaultUnitPrice is the machine-time price used when a pool does not
	// declare one.
	DefaultUnitPrice = 1.0
)

// Limits declares one pool: its ledger parameters and the planning defaults
// applied to requests that omit their own economics.
type Limits struct {
	// Budget is the pool's machine-time capacity in expected machine
	// seconds. The ledger starts full and never exceeds this level.
	Budget float64 `json:"budget"`
	// RefillPerSec restores budget continuously at this rate (machine
	// seconds of budget per wall-clock second), up to Budget. Zero means a
	// fixed, non-replenishing budget.
	RefillPerSec float64 `json:"refillPerSec,omitempty"`
	// Theta is the tenant's default PoCD/cost tradeoff factor. Zero means
	// DefaultTheta.
	Theta float64 `json:"theta,omitempty"`
	// UnitPrice is the tenant's default machine-time price. Zero means
	// DefaultUnitPrice.
	UnitPrice float64 `json:"unitPrice,omitempty"`
	// RMin is the tenant's default minimum acceptable PoCD, in [0, 1).
	RMin float64 `json:"rmin,omitempty"`
}

// withDefaults fills zero planning fields.
func (l Limits) withDefaults() Limits {
	if l.Theta == 0 {
		l.Theta = DefaultTheta
	}
	if l.UnitPrice == 0 {
		l.UnitPrice = DefaultUnitPrice
	}
	return l
}

// validate reports whether the limits describe a well-posed pool.
func (l Limits) validate() error {
	if !(l.Budget > 0) {
		return fmt.Errorf("budget must be positive, got %v", l.Budget)
	}
	if l.RefillPerSec < 0 {
		return fmt.Errorf("refillPerSec must be >= 0, got %v", l.RefillPerSec)
	}
	if l.Theta < 0 {
		return fmt.Errorf("theta must be >= 0, got %v", l.Theta)
	}
	if l.UnitPrice < 0 {
		return fmt.Errorf("unitPrice must be >= 0, got %v", l.UnitPrice)
	}
	if l.RMin < 0 || l.RMin >= 1 {
		return fmt.Errorf("rmin must be in [0, 1), got %v", l.RMin)
	}
	return nil
}

// ledger is the mutable token-bucket state. It is held by pointer so that
// Rebase can share one ledger between the pool generations of a hot
// reload: requests still holding the pre-reload *Pool debit the same
// bucket the post-reload Pool reads, and no grant is ever lost or doubled
// across the swap.
type ledger struct {
	budget float64 // capacity
	refill float64 // machine seconds of budget per wall-clock second

	mu    sync.Mutex
	level float64   // remaining budget at time last
	last  time.Time // instant level was last settled
	now   func() time.Time
}

func newLedger(budget, refill float64) *ledger {
	l := &ledger{budget: budget, refill: refill, level: budget, now: time.Now}
	l.last = l.now()
	return l
}

// refillLocked advances the ledger to now. Callers hold l.mu.
func (l *ledger) refillLocked() {
	t := l.now()
	if dt := t.Sub(l.last).Seconds(); dt > 0 && l.refill > 0 {
		l.level += dt * l.refill
		if l.level > l.budget {
			l.level = l.budget
		}
	}
	l.last = t
}

// Pool is one tenant's budget pool: planning defaults plus a token-bucket
// ledger denominated in expected machine seconds. All methods are safe for
// concurrent use.
type Pool struct {
	name   string
	limits Limits
	led    *ledger
}

// newPool builds a full pool. limits must already be validated/defaulted.
func newPool(name string, limits Limits) *Pool {
	return &Pool{
		name:   name,
		limits: limits,
		led:    newLedger(limits.Budget, limits.RefillPerSec),
	}
}

// Name returns the pool's tenant name.
func (p *Pool) Name() string { return p.name }

// Limits returns the pool's declared parameters (defaults filled).
func (p *Pool) Limits() Limits { return p.limits }

// Remaining returns the budget currently available, after refill.
func (p *Pool) Remaining() float64 {
	p.led.mu.Lock()
	defer p.led.mu.Unlock()
	p.led.refillLocked()
	return p.led.level
}

// TryDebit atomically deducts cost if the (refilled) level covers it, and
// reports whether the debit happened along with the post-debit remainder.
// The check and the deduction share one critical section, so concurrent
// debitors can never over-commit the pool. A NaN cost is refused: no
// comparison against it holds, and deducting it would leave the level NaN —
// refusing every later debit — until the process restarts.
func (p *Pool) TryDebit(cost float64) (ok bool, remaining float64) {
	if cost < 0 {
		cost = 0
	}
	p.led.mu.Lock()
	defer p.led.mu.Unlock()
	p.led.refillLocked()
	if !(cost <= p.led.level) { // not "cost > level": that is false for NaN
		return false, p.led.level
	}
	p.led.level -= cost
	return true, p.led.level
}

// SetLevel pins the ledger to level (clamped to [0, budget]) as of now. It
// exists for snapshot restore at boot; refill resumes from the restore
// instant, so budget that would have refilled while the process was down is
// conservatively not granted.
func (p *Pool) SetLevel(level float64) {
	if level < 0 {
		level = 0
	}
	if level > p.led.budget {
		level = p.led.budget
	}
	p.led.mu.Lock()
	defer p.led.mu.Unlock()
	p.led.level = level
	p.led.last = p.led.now()
}

// Registry is an immutable set of pools keyed by tenant name. The pool map
// never changes after construction — hot reloads swap whole registries — so
// lookups need no locking; only the per-pool ledgers are mutable.
type Registry struct {
	pools map[string]*Pool
	names []string // sorted, for stable metrics iteration
}

// ErrDuplicate reports two pools declared with the same name.
var ErrDuplicate = errors.New("tenant: duplicate pool name")

// NewRegistry builds a registry from named limits. Every entry is validated
// and zero planning fields take package defaults.
func NewRegistry(limits map[string]Limits) (*Registry, error) {
	r := &Registry{pools: make(map[string]*Pool, len(limits))}
	for name, l := range limits {
		if name == "" {
			return nil, errors.New("tenant: pool name must be non-empty")
		}
		l = l.withDefaults()
		if err := l.validate(); err != nil {
			return nil, fmt.Errorf("tenant: pool %q: %w", name, err)
		}
		r.pools[name] = newPool(name, l)
		r.names = append(r.names, name)
	}
	sort.Strings(r.names)
	return r, nil
}

// Get returns the named pool, or nil. Safe on a nil registry.
func (r *Registry) Get(name string) *Pool {
	if r == nil {
		return nil
	}
	return r.pools[name]
}

// GetBytes is Get for a tenant name still sitting in a pooled request
// buffer: the string(b) map probe compiles to a no-allocation lookup.
func (r *Registry) GetBytes(b []byte) *Pool {
	if r == nil {
		return nil
	}
	return r.pools[string(b)]
}

// Pools returns every pool in name order. Safe on a nil registry.
func (r *Registry) Pools() []*Pool {
	if r == nil {
		return nil
	}
	out := make([]*Pool, 0, len(r.names))
	for _, n := range r.names {
		out = append(out, r.pools[n])
	}
	return out
}

// Len returns the pool count. Safe on a nil registry.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.pools)
}

// Rebase carries live ledgers over from old for pools that kept the same
// name and ledger shape (Budget and RefillPerSec), so a SIGHUP reload does
// not hand every tenant a fresh budget. The ledger object itself is shared,
// not copied: requests still holding a pre-reload Pool keep debiting the
// same bucket the rebased Pool reads, so no grant is lost across the swap.
// Pools that are new, or whose ledger parameters changed, start full.
// Planning defaults (theta, unit price, RMin) always come from the new
// declaration. Safe when old is nil. Call before publishing r.
func (r *Registry) Rebase(old *Registry) {
	if r == nil || old == nil {
		return
	}
	for name, p := range r.pools {
		prev := old.pools[name]
		if prev == nil {
			continue
		}
		if prev.limits.Budget != p.limits.Budget ||
			prev.limits.RefillPerSec != p.limits.RefillPerSec {
			continue
		}
		p.led = prev.led
	}
}
