// Package sim provides a minimal deterministic discrete-event simulation
// engine: a virtual clock, a priority event queue with stable FIFO ordering
// for simultaneous events, and cancellable timers. The cluster and MapReduce
// substrates are built on top of it.
package sim

import (
	"fmt"
	"math"
)

// Handler is the target of a scheduled event. A pointer-shaped
// implementation (a pointer, or a func through Schedule) is stored in the
// queue without allocating, which is what lets the per-attempt events of the
// MapReduce runtime skip the closure a func() would need.
type Handler interface {
	Fire()
}

// handlerFunc adapts the func() of Schedule to Handler.
type handlerFunc func()

func (f handlerFunc) Fire() { f() }

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all event handlers run on the caller's goroutine inside
// Run/Step.
type Engine struct {
	now float64
	seq uint64
	// processed counts executed events, for introspection and tests.
	processed uint64

	// heap is a 4-ary min-heap ordered by (at, seq). The key lives in the
	// heap entry so sifting never leaves the array; the handler lives in a
	// pooled slot so a Timer can reach it without knowing where the entry
	// has moved to.
	heap  []heapEntry
	slots []slot
	free  []int32
}

type heapEntry struct {
	at   float64
	seq  uint64
	slot int32
}

// slot is one pooled event record. h is nil once the event has fired or been
// cancelled; seq names the scheduling that owns the slot, so a Timer kept
// past its event cannot touch the slot's next occupant.
type slot struct {
	h   Handler
	seq uint64
}

// Timer is a handle on a scheduled event; Cancel prevents a pending event
// from firing. The zero Timer (and a nil *Timer) is valid and never pending.
type Timer struct {
	eng  *Engine
	seq  uint64
	slot int32
}

// live returns the timer's slot while its event is still scheduled.
func (t *Timer) live() *slot {
	if t == nil || t.eng == nil {
		return nil
	}
	if s := &t.eng.slots[t.slot]; s.seq == t.seq && s.h != nil {
		return s
	}
	return nil
}

// Cancel deschedules the event. Cancelling an already-fired or
// already-cancelled timer is a no-op. Returns whether the event was pending.
func (t *Timer) Cancel() bool {
	s := t.live()
	if s == nil {
		return false
	}
	// The heap entry stays where it is and is discarded when it surfaces;
	// dropping the handler here means a cancelled event holds no reference
	// to its target.
	s.h = nil
	return true
}

// Pending reports whether the event is still scheduled.
func (t *Timer) Pending() bool { return t.live() != nil }

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time.
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Schedule enqueues fn to run at absolute simulation time at. Scheduling in
// the past (before Now) panics: it is always a logic bug in the model.
func (e *Engine) Schedule(at float64, fn func()) Timer {
	return e.ScheduleHandler(at, handlerFunc(fn))
}

// ScheduleHandler is Schedule for a Handler.
func (e *Engine) ScheduleHandler(at float64, h Handler) Timer {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if math.IsNaN(at) {
		panic("sim: schedule at NaN")
	}
	var id int32
	if n := len(e.free); n > 0 {
		id = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		id = int32(len(e.slots))
		e.slots = append(e.slots, slot{})
	}
	seq := e.seq
	e.seq++
	e.slots[id] = slot{h: h, seq: seq}
	e.push(heapEntry{at: at, seq: seq, slot: id})
	return Timer{eng: e, seq: seq, slot: id}
}

// After enqueues fn to run delay units from now.
func (e *Engine) After(delay float64, fn func()) Timer {
	return e.Schedule(e.now+delay, fn)
}

// skipCancelled discards cancelled entries from the head of the queue and
// reports whether a live event remains.
func (e *Engine) skipCancelled() bool {
	for len(e.heap) > 0 {
		if e.slots[e.heap[0].slot].h != nil {
			return true
		}
		e.free = append(e.free, e.pop().slot)
	}
	return false
}

// NextAt reports the timestamp of the next live event, or ok == false when
// the queue holds none. It does not advance the clock. Stream consumers (the
// replay engine) use it to emit window boundaries that fall inside the gap
// before the next event.
func (e *Engine) NextAt() (at float64, ok bool) {
	if !e.skipCancelled() {
		return 0, false
	}
	return e.heap[0].at, true
}

// Step executes the next pending event and returns true, or returns false if
// the queue is empty.
func (e *Engine) Step() bool {
	if !e.skipCancelled() {
		return false
	}
	top := e.pop()
	s := &e.slots[top.slot]
	h := s.h
	// Freed before the handler runs, so whatever it schedules can reuse the
	// slot; the new seq is what tells this event's Timer it has fired.
	s.h = nil
	e.free = append(e.free, top.slot)
	e.now = top.at
	e.processed++
	h.Fire()
	return true
}

// Run drains the event queue.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t and then advances the clock
// to exactly t (even if no event lands there).
func (e *Engine) RunUntil(t float64) {
	for {
		next, ok := e.NextAt()
		if !ok || next > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// Pending returns the number of queued (possibly cancelled) events.
func (e *Engine) Pending() int { return len(e.heap) }

// before orders heap entries by time, then by scheduling order, so
// simultaneous events fire FIFO — including ones a handler schedules for the
// instant it is running at.
func (a heapEntry) before(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push adds x to the heap and sifts it up.
func (e *Engine) push(x heapEntry) {
	h := append(e.heap, x)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !x.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = x
	e.heap = h
}

// pop removes and returns the minimum entry; the heap must not be empty.
func (e *Engine) pop() heapEntry {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	x := h[n] // re-inserted at the root and sifted down
	h = h[:n]
	e.heap = h
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if h[c].before(h[min]) {
				min = c
			}
		}
		if !h[min].before(x) {
			break
		}
		h[i] = h[min]
		i = min
	}
	if n > 0 {
		h[i] = x
	}
	return top
}
