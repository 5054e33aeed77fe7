// Package sim provides a minimal deterministic discrete-event simulation
// engine: a virtual clock, a radix-heap event queue with stable FIFO ordering
// for simultaneous events, and cancellable timers. The cluster and MapReduce
// substrates are built on top of it.
//
// The queue is a radix heap, a priority queue for keys that never go below
// the last one extracted — which a simulation clock guarantees, since nothing
// may be scheduled before Now. The key of an event is the IEEE-754 bit
// pattern of its time: for non-negative floats the bits order exactly like the
// values (+Inf included), and a time is never negative because it is at least
// Now, which starts at zero; -0 is filed as +0. An event whose key equals the
// base (the key last extracted) waits in a ready list; any other sits in the
// bucket named by the highest bit in which its key differs from the base.
// Only the lowest non-empty bucket is ever redistributed, when the ready list
// runs dry: its minimum becomes the new base and every entry moves to a
// strictly lower bucket or to the ready list, so an entry is moved at most 64
// times however long it waits. Cancelled events are dropped there, by a look
// at their record and without a comparison, instead of being sifted through a
// heap one pop at a time. Equal keys always share a bucket and move together
// in the order they were filed, so simultaneous events reach the ready list
// in scheduling order and fire FIFO without a sort.
//
// NextAt peeks without moving the base, so an event scheduled into the gap
// before the peeked one still files above the base. Pending counts queued
// entries, cancelled ones until a redistribution or a peek drops them.
package sim

import (
	"fmt"
	"math"
	"math/bits"
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

	// base is the key last extracted: every queued key is at least base, and
	// base is at most the key of Now. Only extraction (Step) moves it; NextAt
	// never does, so a schedule into the gap before a peeked event cannot
	// land below it.
	base uint64
	// ready holds the slots of the events whose key equals base, in
	// scheduling order from head on; it is consumed before any bucket.
	ready []int32
	head  int
	// buckets[i] holds the events whose key differs from base first in bit
	// i, so every key in buckets[i] is below every key in buckets[i+1];
	// filled is the set of non-empty buckets. A bucket keeps its capacity
	// for the engine's lifetime.
	buckets [64][]entry
	filled  uint64
	// The handler lives in a pooled slot, so a Timer can reach it without
	// knowing which bucket its entry is in.
	slots []slot
	free  []int32
}

// entry is one queued event: its time as a key, and its record.
type entry struct {
	key  uint64
	slot int32
}

// slot is one pooled event record. h is nil once the event has fired or been
// cancelled; seq names the scheduling that owns the slot, so a Timer kept
// past its event cannot touch the slot's next occupant. A cancelled event
// keeps its slot until the queue drops its entry.
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
	if t == nil || t.eng == nil || int(t.slot) >= len(t.eng.slots) {
		return nil // a Reset since, which may have shortened the slots
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
	// The queue entry stays where it is until the queue next passes over it
	// (a redistribution, a peek, the ready list's head) and drops it;
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

// Reset empties the engine for a new run: the clock, the base and the
// processed count go back to zero and every queued event is dropped. The
// ready list, the buckets, the slots and the free list keep their capacity,
// which is what a recycled engine is for; every slot's handler is dropped,
// so the engine holds no reference into the run that ended. seq keeps
// counting: a Timer from before the reset names a seq no later event is
// given, so it reports not Pending and its Cancel cannot reach an event
// that reuses its slot. Events fire in filing order, which a reset engine
// assigns exactly as a new one does, so a run after Reset is the run a new
// engine would give.
func (e *Engine) Reset() {
	e.now, e.base, e.filled, e.processed = 0, 0, 0, 0
	e.ready, e.head = e.ready[:0], 0
	for i := range e.buckets {
		e.buckets[i] = e.buckets[i][:0]
	}
	clear(e.slots)
	e.slots, e.free = e.slots[:0], e.free[:0]
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
	// at >= Now >= 0, so only -0 has its sign bit set; clearing it files -0
	// as +0 and leaves every other key as it is.
	e.file(entry{key: math.Float64bits(at) &^ (1 << 63), slot: id})
	return Timer{eng: e, seq: seq, slot: id}
}

// After enqueues fn to run delay units from now.
func (e *Engine) After(delay float64, fn func()) Timer {
	return e.Schedule(e.now+delay, fn)
}

// file puts x on the ready list or in its bucket relative to base.
func (e *Engine) file(x entry) {
	d := x.key ^ e.base
	if d == 0 {
		e.ready = append(e.ready, x.slot)
		return
	}
	i := bits.Len64(d) - 1
	e.buckets[i] = append(e.buckets[i], x)
	e.filled |= 1 << i
}

// readyHead drops cancelled events from the head of the ready list and
// reports whether a live one is left there.
func (e *Engine) readyHead() bool {
	for e.head < len(e.ready) {
		id := e.ready[e.head]
		if e.slots[id].h != nil {
			return true
		}
		e.free = append(e.free, id)
		e.advanceHead()
	}
	return false
}

// advanceHead consumes the ready list's head; a drained list restarts at its
// first element, so same-instant chains reuse its capacity.
func (e *Engine) advanceHead() {
	e.head++
	if e.head == len(e.ready) {
		e.ready, e.head = e.ready[:0], 0
	}
}

// compact drops the cancelled entries of bucket i and returns the smallest
// live key in it; ok is false when none is left, and the bucket is then
// marked empty.
func (e *Engine) compact(i int) (min uint64, ok bool) {
	b := e.buckets[i]
	n := 0
	min = math.MaxUint64
	for _, x := range b {
		if e.slots[x.slot].h == nil {
			e.free = append(e.free, x.slot)
			continue
		}
		b[n] = x
		n++
		if x.key < min {
			min = x.key
		}
	}
	e.buckets[i] = b[:n]
	if n == 0 {
		e.filled &^= 1 << i
	}
	return min, n > 0
}

// refill moves the base to the smallest live key and redistributes the
// lowest non-empty bucket around it, which leaves a live event at the ready
// list's head. It reports false when the queue holds none. The ready list
// must be empty.
func (e *Engine) refill() bool {
	for e.filled != 0 {
		i := bits.TrailingZeros64(e.filled)
		min, ok := e.compact(i)
		if !ok {
			continue
		}
		// Every key in bucket i agrees with min above bit i, so each entry
		// lands in a lower bucket or on the ready list; higher buckets stay
		// valid as they are.
		b := e.buckets[i]
		e.buckets[i] = b[:0]
		e.filled &^= 1 << i
		e.base = min
		for _, x := range b {
			e.file(x)
		}
		return true
	}
	return false
}

// NextAt reports the timestamp of the next live event, or ok == false when
// the queue holds none. It does not advance the clock, and it does not move
// the base: it drops cancelled entries from the ready list and from the
// lowest buckets and scans for their minimum in place. Stream consumers (the
// replay engine) use it to emit window boundaries that fall inside the gap
// before the next event.
func (e *Engine) NextAt() (at float64, ok bool) {
	if e.readyHead() {
		return math.Float64frombits(e.base), true
	}
	for e.filled != 0 {
		if min, ok := e.compact(bits.TrailingZeros64(e.filled)); ok {
			return math.Float64frombits(min), true
		}
	}
	return 0, false
}

// Step executes the next pending event and returns true, or returns false if
// the queue is empty.
func (e *Engine) Step() bool {
	if !e.readyHead() && !e.refill() {
		return false
	}
	id := e.ready[e.head]
	e.advanceHead()
	s := &e.slots[id]
	h := s.h
	// Freed before the handler runs, so whatever it schedules can reuse the
	// slot; the new seq is what tells this event's Timer it has fired.
	s.h = nil
	e.free = append(e.free, id)
	e.now = math.Float64frombits(e.base)
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

// Pending returns the number of queued events, cancelled ones included until
// the queue drops them: at the ready list's head, when their bucket is
// redistributed, or when NextAt scans it.
func (e *Engine) Pending() int {
	n := len(e.ready) - e.head
	for _, b := range e.buckets {
		n += len(b)
	}
	return n
}
