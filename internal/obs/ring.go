package obs

import (
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// TraceRing keeps the last capacity finished request snapshots, by value:
// Add copies the snapshot in, so the trace it came from can serve the next
// request, and readers get copies out. Inserts are O(1) under one mutex,
// once per request, after the handler returns. That is off the client's
// latency only for a streamed answer: a buffered one leaves net/http after
// the middleware does, so the insert is ahead of it. Readers get the slowest
// of the retained window, which is what an operator debugging a latency
// regression wants: "what were the worst recent requests and where did they
// spend their time".
type TraceRing struct {
	mu   sync.Mutex
	buf  []Snapshot
	next int
	n    uint64 // lifetime inserts
}

// DefaultTraceRingSize is the retained-snapshot window when the serving
// config leaves it zero.
const DefaultTraceRingSize = 256

// NewTraceRing builds a ring retaining up to capacity snapshots (<= 0 takes
// DefaultTraceRingSize).
func NewTraceRing(capacity int) *TraceRing {
	if capacity <= 0 {
		capacity = DefaultTraceRingSize
	}
	return &TraceRing{buf: make([]Snapshot, capacity)}
}

// Add copies one finished snapshot in, evicting the oldest when full. Nil
// receivers and nil snapshots are ignored.
func (r *TraceRing) Add(s *Snapshot) {
	if r == nil || s == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = *s
	r.next = (r.next + 1) % len(r.buf)
	r.n++
	r.mu.Unlock()
}

// retained is the number of filled slots. Caller holds mu.
func (r *TraceRing) retained() int {
	if r.n >= uint64(len(r.buf)) {
		return len(r.buf)
	}
	return int(r.n)
}

// Slowest returns copies of up to n retained snapshots, slowest first (n <=
// 0 returns all retained).
func (r *TraceRing) Slowest(n int) []*Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	snaps := make([]Snapshot, r.retained())
	copy(snaps, r.buf) // the filled slots are buf's first retained ones
	r.mu.Unlock()
	out := make([]*Snapshot, len(snaps))
	for i := range snaps {
		out[i] = &snaps[i]
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seconds > out[j].Seconds })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Find returns a copy of the most recent retained snapshot with the given
// trace ID, or nil. A forwarded request leaves one snapshot per replica it
// touched; Find on each replica's ring is how tests and the ring demo assert
// cross-replica propagation.
func (r *TraceRing) Find(id string) *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// Walk backwards from the most recent insert.
	for i := 0; i < r.retained(); i++ {
		if s := &r.buf[(r.next-1-i+len(r.buf))%len(r.buf)]; s.ID == id {
			found := *s
			return &found
		}
	}
	return nil
}

// Len returns the number of retained snapshots.
func (r *TraceRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retained()
}

// stageJSON is the wire form of one stage's accumulated span.
type stageJSON struct {
	Seconds float64 `json:"seconds"`
	Count   int64   `json:"count"`
}

// snapshotJSON is the /debug/traces wire form of a Snapshot.
type snapshotJSON struct {
	TraceID    string               `json:"traceId"`
	Route      string               `json:"route"`
	Status     int                  `json:"status"`
	Start      time.Time            `json:"start"`
	Seconds    float64              `json:"seconds"`
	Tenant     string               `json:"tenant,omitempty"`
	Cached     *bool                `json:"cached,omitempty"`
	ServedBy   string               `json:"servedBy,omitempty"`
	ForwardHop bool                 `json:"forwardHop,omitempty"`
	Stages     map[string]stageJSON `json:"stages,omitempty"`
}

// MarshalJSON renders the snapshot with stages as a keyed object, omitting
// stages that never fired. The map is built here, at exposition time, so the
// per-request Finish path stays a flat copy.
func (sn *Snapshot) MarshalJSON() ([]byte, error) {
	out := snapshotJSON{
		TraceID:    sn.ID,
		Route:      sn.Route,
		Status:     sn.Status,
		Start:      sn.Start,
		Seconds:    sn.Seconds,
		Tenant:     sn.Tenant,
		Cached:     sn.Cached,
		ServedBy:   sn.ServedBy,
		ForwardHop: sn.ForwardHop,
	}
	for s := Stage(0); s < NumStages; s++ {
		if sn.StageCounts[s] == 0 {
			continue
		}
		if out.Stages == nil {
			out.Stages = make(map[string]stageJSON, int(NumStages))
		}
		out.Stages[s.String()] = stageJSON{
			Seconds: sn.StageSeconds(s),
			Count:   sn.StageCounts[s],
		}
	}
	return json.Marshal(out)
}
