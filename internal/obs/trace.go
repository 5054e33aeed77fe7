// Package obs is chronosd's request-scoped observability layer: trace IDs
// that follow a request across replicas, a lock-free per-stage span recorder
// for the serving hot path, a ring buffer of recent slow traces, and the
// pprof/trace debug surface. The serving layer (internal/server) threads a
// *Trace through every handler; this package owns the vocabulary so the
// server and the CLIs log and trace through one mechanism.
package obs

import (
	"encoding/hex"
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// TraceHeader carries a request's trace ID across forward hops and back to
// the client on every response. An inbound value is honored (after
// sanitizing) so callers and upstream proxies can stitch chronosd spans into
// their own traces; absent or unusable values get a freshly minted ID.
const TraceHeader = "X-Chronosd-Trace-Id"

// Stage indexes one instrumented phase of the serving hot path. Stages are
// accumulated, not exclusive: a batch request records many Solve spans, a
// forwarded request records the whole peer round trip under StageForward.
type Stage uint8

const (
	// StageQuantize is plan-key construction: the request's exact bits
	// written as the cache/ring key. (The label predates exact-bit keys,
	// when the floats were rounded first; it stays for the metrics it names.)
	StageQuantize Stage = iota
	// StageCache is a sharded plan-cache lookup. Where the key build comes
	// straight before it, the span starts at the key build's end, so it also
	// covers the ring-owner lookup between them.
	StageCache
	// StageSolve is an Algorithm 1 optimization (cache miss, batch strategy
	// selection, or a budget-capped re-solve).
	StageSolve
	// StageDebit is a tenant-ledger debit attempt.
	StageDebit
	// StageForward is a cross-replica forward round trip (request out
	// through response body read).
	StageForward
	// StageReplayEmit is NDJSON replay-event encoding, write, and flush.
	StageReplayEmit

	// NumStages sizes per-stage arrays; keep it last.
	NumStages
)

var stageNames = [NumStages]string{
	"quantize", "cache", "solve", "debit", "forward", "replay_emit",
}

// String returns the stable label used in logs, metrics, and /debug/traces.
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// Trace is one request's span recorder. It lives exactly as long as its
// request: the routing middleware takes it from a pool when the request
// arrives, hands it to the handler through the routed ResponseWriter, and
// returns it once the request is finished and its snapshot copied out, so
// nothing may keep a *Trace (or the Snapshot Finish returns) past the
// handler's return. Stage observations are lock-free atomic accumulations
// (matching the internal/metrics style): every span is observed on the
// request's own goroutine today, and a goroutine a handler starts and waits
// for may record beside it without locking. The identity fields are written
// only by the request's own handler goroutine. A nil *Trace is valid
// everywhere and records nothing, so library call paths without a request
// stay uninstrumented at zero cost.
type Trace struct {
	// ID is the request's trace ID: honored from the inbound TraceHeader or
	// minted at the edge.
	ID string
	// Route is the stable endpoint label ("/v1/plan", ...).
	Route string

	start  time.Time
	nanos  [NumStages]atomic.Int64
	counts [NumStages]atomic.Int64

	// Single-writer metadata (handler goroutine only).
	tenant string
	cached int8 // 0 unknown, 1 miss, 2 hit

	// snap is what Finish fills and returns, so finishing a request
	// allocates no snapshot of its own.
	snap Snapshot
}

// NewTrace starts a trace for route, honoring id when it is usable and
// minting otherwise.
func NewTrace(id, route string) *Trace {
	t := new(Trace)
	t.Begin(id, route)
	return t
}

// Begin starts t over for a new request on route, as NewTrace starts a
// fresh one: the clock is read first, id is honored when it is usable and
// minted otherwise, and every span and tag of the previous request is
// cleared.
func (t *Trace) Begin(id, route string) {
	start := time.Now()
	if !ValidID(id) {
		id = MintID()
	}
	*t = Trace{ID: id, Route: route, start: start}
}

// Start returns the instant the trace began, so the edge can time the
// request from the same clock read.
func (t *Trace) Start() time.Time { return t.start }

// Observe adds one stage span of duration d.
func (t *Trace) Observe(s Stage, d time.Duration) {
	if t == nil {
		return
	}
	t.nanos[s].Add(int64(d))
	t.counts[s].Add(1)
}

// SetTenant records the budget pool the request was routed through. Handler
// goroutine only.
func (t *Trace) SetTenant(name string) {
	if t != nil {
		t.tenant = name
	}
}

// SetCached records whether the plan came from the cache. Handler goroutine
// only.
func (t *Trace) SetCached(hit bool) {
	if t == nil {
		return
	}
	if hit {
		t.cached = 2
	} else {
		t.cached = 1
	}
}

// hitFlag and missFlag are what every Snapshot.Cached points at, indexed by
// Trace.cached: shared by all snapshots and never written, so a snapshot and
// its copies carry the flag without an allocation of their own.
var (
	hitFlag, missFlag = true, false
	cachedFlags       = [3]*bool{nil, &missFlag, &hitFlag}
)

// Finish snapshots the trace once the response is written. status is the
// HTTP status, servedBy the replica that computed the answer (from the
// response header, empty when sharding is off), and forwardHop reports
// whether the request arrived already forwarded from a peer. The snapshot is
// the trace's own and lives as long as the trace does; TraceRing.Add copies
// it.
func (t *Trace) Finish(status int, elapsed time.Duration, servedBy string, forwardHop bool) *Snapshot {
	if t == nil {
		return nil
	}
	snap := &t.snap
	*snap = Snapshot{
		ID:         t.ID,
		Route:      t.Route,
		Status:     status,
		Start:      t.start,
		End:        t.start.Add(elapsed),
		Seconds:    elapsed.Seconds(),
		Tenant:     t.tenant,
		Cached:     cachedFlags[t.cached],
		ServedBy:   servedBy,
		ForwardHop: forwardHop,
	}
	for s := Stage(0); s < NumStages; s++ {
		snap.StageNanos[s] = t.nanos[s].Load()
		snap.StageCounts[s] = t.counts[s].Load()
	}
	return snap
}

// Snapshot is the record of one finished request: what /debug/traces
// serves and the request log line is built from. Stage data is kept as flat
// arrays so a snapshot is one value with no pointers to chase but its
// strings and the shared Cached flag, copied whole into the trace ring;
// MarshalJSON expands them into a keyed object for human consumption.
type Snapshot struct {
	ID         string
	Route      string
	Status     int
	Start      time.Time
	End        time.Time // Start plus the measured elapsed time: the request line's stamp
	Seconds    float64
	Tenant     string
	Cached     *bool
	ServedBy   string
	ForwardHop bool
	StageNanos [NumStages]int64
	// StageCounts holds per-stage observation counts; for a well-formed
	// single-plan request each instrumented stage fires at most once, so a
	// higher count signals a batch's jobs or retries.
	StageCounts [NumStages]int64
}

// StageSeconds returns the accumulated seconds spent in stage s.
func (sn *Snapshot) StageSeconds(s Stage) float64 {
	return float64(sn.StageNanos[s]) / 1e9
}

// MintID returns a fresh 128-bit lowercase-hex trace ID. IDs need collision
// resistance across a fleet, not unpredictability, so the process-seeded
// math/rand/v2 generator is enough and keeps minting off the hot path's
// syscall budget.
func MintID() string {
	var b [16]byte
	hi, lo := rand.Uint64(), rand.Uint64()
	for i := 0; i < 8; i++ {
		b[i] = byte(hi >> (56 - 8*i))
		b[8+i] = byte(lo >> (56 - 8*i))
	}
	var h [32]byte
	hex.Encode(h[:], b[:])
	return string(h[:])
}

// maxIDLen bounds honored inbound trace IDs; anything longer is replaced,
// keeping log lines and headers from amplifying attacker-chosen payloads.
const maxIDLen = 64

// ValidID reports whether an inbound trace ID is safe to honor: 1..64
// characters from [0-9A-Za-z._-]. Everything else — empty, oversized, or
// containing header/log-breaking bytes — gets a minted replacement.
func ValidID(id string) bool {
	if len(id) == 0 || len(id) > maxIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}
