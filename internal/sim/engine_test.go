package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"chronos/internal/race"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		e.Schedule(at, func() { got = append(got, at) })
	}
	e.Run()
	if !sort.Float64sAreSorted(got) {
		t.Errorf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Errorf("fired %d events, want 5", len(got))
	}
	if e.Now() != 5 {
		t.Errorf("Now() = %v, want 5", e.Now())
	}
}

func TestSimultaneousEventsAreFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", got)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	e := NewEngine()
	var at float64
	e.Schedule(10, func() {
		e.After(5, func() { at = e.Now() })
	})
	e.Run()
	if at != 15 {
		t.Errorf("After(5) from t=10 fired at %v, want 15", at)
	}
}

func TestSchedulingFromHandlers(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	e.Run()
	if count != 100 {
		t.Errorf("recurrent event fired %d times, want 100", count)
	}
	if e.Now() != 100 {
		t.Errorf("Now() = %v, want 100", e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(5, func() {})
}

func TestScheduleNaNPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling at NaN did not panic")
		}
	}()
	e.Schedule(math.NaN(), func() {})
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	timer := e.Schedule(1, func() { fired = true })
	if !timer.Pending() {
		t.Error("timer not pending after Schedule")
	}
	if !timer.Cancel() {
		t.Error("Cancel returned false for pending timer")
	}
	if timer.Cancel() {
		t.Error("second Cancel returned true")
	}
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if e.Processed() != 0 {
		t.Errorf("Processed() = %d, want 0", e.Processed())
	}
}

func TestCancelAfterFire(t *testing.T) {
	e := NewEngine()
	timer := e.Schedule(1, func() {})
	e.Run()
	if timer.Pending() {
		t.Error("fired timer still pending")
	}
	if timer.Cancel() {
		t.Error("Cancel after fire returned true")
	}
}

func TestNilTimerCancel(t *testing.T) {
	var timer *Timer
	if timer.Cancel() {
		t.Error("nil timer Cancel returned true")
	}
	if timer.Pending() {
		t.Error("nil timer Pending returned true")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4, 5} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(3)
	if len(fired) != 3 {
		t.Errorf("RunUntil(3) fired %d events, want 3", len(fired))
	}
	if e.Now() != 3 {
		t.Errorf("Now() = %v, want 3", e.Now())
	}
	e.RunUntil(10)
	if len(fired) != 5 {
		t.Errorf("after RunUntil(10) fired %d events, want 5", len(fired))
	}
	if e.Now() != 10 {
		t.Errorf("Now() = %v, want clock advanced to 10", e.Now())
	}
}

func TestPendingCount(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	if e.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Errorf("Pending() after Run = %d, want 0", e.Pending())
	}
}

// TestHeapStress exercises the queue with random interleaved schedule and
// cancel operations — from outside and from inside handlers, through live
// handles and through handles whose event has fired and whose pooled record
// has since been given to another event — and checks the fire order against
// a sort of the surviving events by (at, seq).
func TestHeapStress(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewPCG(1, 2))
	type ev struct {
		at     float64
		seq    int // scheduling order, the FIFO tie-break
		timer  Timer
		killed bool
	}
	var all []*ev
	var fired []int
	var schedule func(at float64, depth int)
	schedule = func(at float64, depth int) {
		x := &ev{at: at, seq: len(all)}
		all = append(all, x)
		x.timer = e.Schedule(at, func() {
			fired = append(fired, x.seq)
			if x.timer.Pending() {
				t.Errorf("event %d pending while it fires", x.seq)
			}
			if depth < 3 && rng.Float64() < 0.5 {
				// Same-instant and later events scheduled from a handler;
				// the first reuses the record this event just gave back.
				schedule(at, depth+1)
				schedule(at+rng.Float64()*50, depth+1)
			}
			// Cancel something at random: a pending event must report true
			// and never fire; a fired or cancelled one must report false and
			// leave whatever now occupies its record alone.
			victim := all[rng.IntN(len(all))]
			pending := victim.timer.Pending()
			if got := victim.timer.Cancel(); got != pending {
				t.Errorf("Cancel of event %d = %v, Pending said %v", victim.seq, got, pending)
			}
			if pending {
				victim.killed = true
			}
		})
	}
	for i := 0; i < 3000; i++ {
		// A coarse grid, so many events tie on time.
		schedule(math.Floor(rng.Float64()*400), 0)
	}
	for _, x := range all {
		if rng.Float64() < 0.33 && x.timer.Cancel() {
			x.killed = true
		}
	}
	e.Run()

	var want []int
	for _, x := range all {
		if !x.killed {
			want = append(want, x.seq)
		}
	}
	sort.SliceStable(want, func(i, j int) bool { return all[want[i]].at < all[want[j]].at })
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d of %d scheduled", len(fired), len(want), len(all))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fire %d was event %d (at %v), want event %d (at %v)",
				i, fired[i], all[fired[i]].at, want[i], all[want[i]].at)
		}
	}
	if len(e.slots) >= len(all) {
		t.Errorf("%d records for %d events: records are not being reused", len(e.slots), len(all))
	}
	for _, x := range all {
		if x.timer.Pending() || x.timer.Cancel() {
			t.Fatalf("event %d still cancellable after the run", x.seq)
		}
	}
}

// TestStaleTimerSparesRecycledRecord is the trap the generation check
// exists for, in isolation: a handle kept past its event must not cancel the
// event that inherited its record.
func TestStaleTimerSparesRecycledRecord(t *testing.T) {
	e := NewEngine()
	stale := e.Schedule(1, func() {})
	e.Run()
	fired := false
	fresh := e.Schedule(2, func() { fired = true })
	if fresh.slot != stale.slot {
		t.Fatalf("record not recycled: slot %d then %d", stale.slot, fresh.slot)
	}
	if stale.Pending() || stale.Cancel() {
		t.Error("stale handle acted on the record's new occupant")
	}
	if !fresh.Pending() {
		t.Error("new occupant no longer pending")
	}
	e.Run()
	if !fired {
		t.Error("stale Cancel dropped the new occupant")
	}
}

// TestResetStrandsOldTimers holds a recycled engine to a new one: a Timer
// taken before Reset is not Pending afterwards, and its Cancel leaves alone
// the event scheduled after the reset into the same slot (with the same seq,
// were seq restarted); the clock, the processed count and the queue start
// from zero, and nothing queued before the reset fires.
func TestResetStrandsOldTimers(t *testing.T) {
	e := NewEngine()
	dropped := false
	stale := e.Schedule(5, func() { dropped = true })
	e.Schedule(3, func() {})
	e.Step() // the clock and the processed count move
	e.Reset()
	if e.Now() != 0 || e.Processed() != 0 || e.Pending() != 0 {
		t.Fatalf("after Reset: now %v, processed %d, pending %d", e.Now(), e.Processed(), e.Pending())
	}
	if _, ok := e.NextAt(); ok {
		t.Fatal("an event queued before Reset is still queued")
	}
	if stale.Pending() {
		t.Error("a Timer from before Reset reports Pending")
	}
	fired := false
	fresh := e.Schedule(2, func() { fired = true })
	if fresh.slot != stale.slot {
		t.Fatalf("first event after Reset in slot %d, want %d as in a new engine", fresh.slot, stale.slot)
	}
	if stale.Pending() || stale.Cancel() {
		t.Error("a Timer from before Reset acted on an event scheduled after it")
	}
	e.Run()
	if !fired || dropped {
		t.Errorf("fired %v, pre-Reset event fired %v", fired, dropped)
	}
	if e.Processed() != 1 || e.Now() != 2 {
		t.Errorf("processed %d, now %v; want 1, 2", e.Processed(), e.Now())
	}
}

// TestNextAt covers the peek API the streaming replay loop drives windows
// with: it must see through cancelled heads and never advance the clock.
func TestNextAt(t *testing.T) {
	e := NewEngine()
	if _, ok := e.NextAt(); ok {
		t.Error("NextAt on empty queue reported an event")
	}
	first := e.Schedule(10, func() {})
	e.Schedule(20, func() {})
	if at, ok := e.NextAt(); !ok || at != 10 {
		t.Errorf("NextAt = %v, %v, want 10, true", at, ok)
	}
	if e.Now() != 0 {
		t.Errorf("NextAt advanced the clock to %v", e.Now())
	}
	first.Cancel()
	if at, ok := e.NextAt(); !ok || at != 20 {
		t.Errorf("NextAt after cancelling head = %v, %v, want 20, true", at, ok)
	}
	e.Run()
	if _, ok := e.NextAt(); ok {
		t.Error("NextAt after drain reported an event")
	}
}

// TestScheduleStepZeroAlloc pins the event path: once the heap and the record
// pool have grown to the queue's working size, scheduling an event — a func
// or a Handler — and firing it allocates nothing.
func TestScheduleStepZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc counts only hold without -race")
	}
	e := NewEngine()
	noop := func() {}
	for i := 0; i < 1000; i++ {
		e.Schedule(float64(i%97), noop)
	}
	var target countingHandler
	allocs := testing.AllocsPerRun(5000, func() {
		e.Schedule(e.Now()+3, noop)
		timer := e.ScheduleHandler(e.Now()+5, &target)
		e.Step()
		e.Step()
		timer.Cancel()
	})
	if allocs != 0 {
		t.Errorf("%g allocs per schedule+step, want 0", allocs)
	}
	if target == 0 {
		t.Error("the Handler never fired")
	}
}

type countingHandler int

func (h *countingHandler) Fire() { *h++ }

// refEngine is the queue the radix heap replaced, kept as the differential
// oracle: a 4-ary min-heap ordered by (at, seq) that discards a cancelled
// entry when it surfaces at the root.
type refEngine struct {
	now       float64
	seq       uint64
	processed uint64
	heap      []refEntry
}

type refEntry struct {
	at  float64
	seq uint64
	ev  *refEvent
}

// refEvent is the oracle's timer; done once the event fired or was cancelled.
type refEvent struct {
	fn   func()
	done bool
}

func (v *refEvent) Cancel() bool {
	was := !v.done
	v.done = true
	return was
}

func (v *refEvent) Pending() bool { return !v.done }

func (a refEntry) before(b refEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *refEngine) push(x refEntry) {
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

func (e *refEngine) pop() refEntry {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	x := h[n]
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

func (e *refEngine) skipCancelled() bool {
	for len(e.heap) > 0 && e.heap[0].ev.done {
		e.pop()
	}
	return len(e.heap) > 0
}

func (e *refEngine) schedule(at float64, fn func()) handle {
	ev := &refEvent{fn: fn}
	e.push(refEntry{at: at, seq: e.seq, ev: ev})
	e.seq++
	return ev
}

func (e *refEngine) step() bool {
	if !e.skipCancelled() {
		return false
	}
	top := e.pop()
	top.ev.done = true
	e.now = top.at
	e.processed++
	top.ev.fn()
	return true
}

func (e *refEngine) nextAt() (float64, bool) {
	if !e.skipCancelled() {
		return 0, false
	}
	return e.heap[0].at, true
}

func (e *refEngine) runUntil(t float64) {
	for {
		next, ok := e.nextAt()
		if !ok || next > t {
			break
		}
		e.step()
	}
	if t > e.now {
		e.now = t
	}
}

func (e *refEngine) clock() (float64, uint64) { return e.now, e.processed }

// handle and queue are what the differential script drives: the oracle above
// and the Engine under test, through radixQueue.
type handle interface {
	Cancel() bool
	Pending() bool
}

type queue interface {
	schedule(at float64, fn func()) handle
	step() bool
	nextAt() (float64, bool)
	runUntil(t float64)
	clock() (now float64, processed uint64)
}

type radixQueue struct{ e *Engine }

func (q radixQueue) schedule(at float64, fn func()) handle {
	t := q.e.Schedule(at, fn)
	return &t
}
func (q radixQueue) step() bool              { return q.e.Step() }
func (q radixQueue) nextAt() (float64, bool) { return q.e.NextAt() }
func (q radixQueue) runUntil(t float64)      { q.e.RunUntil(t) }
func (q radixQueue) clock() (float64, uint64) {
	return q.e.Now(), q.e.Processed()
}

// script is one seeded run of the differential test against one queue. Two
// scripts with the same seed make the same decisions for as long as their
// queues behave alike, so the first divergence shows in their logs.
type script struct {
	q      queue
	rng    *rand.Rand
	timers []handle
	at     []float64 // the time each event was scheduled for
	fired  []int
	log    []observation
	bad    []string
}

// observation is what the script records after every operation.
type observation struct {
	op        string
	fired     int
	lastFired int
	now       float64
	processed uint64
	next      float64
	ok        bool
}

func (s *script) now() float64 {
	now, _ := s.q.clock()
	return now
}

// schedule adds event len(timers). When it fires it may schedule at its own
// instant or on the grid, or cancel any event, pending or not.
func (s *script) schedule(at float64, depth int) {
	id := len(s.timers)
	s.at = append(s.at, at)
	s.timers = append(s.timers, nil)
	s.timers[id] = s.q.schedule(at, func() {
		s.fired = append(s.fired, id)
		if s.timers[id].Pending() {
			s.bad = append(s.bad, fmt.Sprintf("event %d pending while it fires", id))
		}
		if depth >= 3 {
			return
		}
		switch s.rng.IntN(4) {
		case 0:
			s.schedule(s.now(), depth+1)
		case 1:
			s.schedule(s.grid(), depth+1)
		case 2:
			s.timers[s.rng.IntN(len(s.timers))].Cancel()
		}
	})
}

// grid is a time on a coarse grid at or after Now, so many events tie.
func (s *script) grid() float64 {
	return math.Ceil(s.now()) + float64(s.rng.IntN(16))
}

// fillGap schedules one or two events in [Now, next], the interval a peek
// has just reported empty of live events.
func (s *script) fillGap(next float64, ok bool) {
	now := s.now()
	for n := 1 + s.rng.IntN(2); n > 0; n-- {
		at := now
		if ok && next < math.Inf(1) && s.rng.IntN(3) > 0 {
			at = now + (next-now)*s.rng.Float64()
		}
		s.schedule(at, 0)
	}
}

// head is the pending event that fires next, by (at, scheduling order), or -1.
func (s *script) head() int {
	best := -1
	for id, t := range s.timers {
		if t.Pending() && (best < 0 || s.at[id] < s.at[best]) {
			best = id
		}
	}
	return best
}

func (s *script) observe(op string) {
	next, ok := s.q.nextAt()
	now, processed := s.q.clock()
	o := observation{op: op, fired: len(s.fired), lastFired: -1, now: now, processed: processed, next: next, ok: ok}
	if len(s.fired) > 0 {
		o.lastFired = s.fired[len(s.fired)-1]
	}
	s.log = append(s.log, o)
}

// phase runs ops random operations and then drains the queue, observing
// after each of them and after every step of the drain.
func (s *script) phase(ops int) {
	for i := 0; i < ops; i++ {
		switch s.rng.IntN(8) {
		case 0:
			for n := 1 + s.rng.IntN(4); n > 0; n-- {
				s.schedule(s.grid(), 0)
			}
			s.observe("schedule on the grid")
		case 1:
			for n := 1 + s.rng.IntN(3); n > 0; n-- {
				s.q.step()
			}
			s.observe("step")
		case 2:
			if id := s.head(); id >= 0 && !s.timers[id].Cancel() {
				s.bad = append(s.bad, fmt.Sprintf("cancel of the pending head %d reported false", id))
			}
			s.observe("cancel the head")
		case 3:
			s.timers[s.rng.IntN(len(s.timers))].Cancel()
			s.observe("cancel any")
		case 4:
			if id := s.rng.IntN(len(s.timers)); !s.timers[id].Pending() && s.timers[id].Cancel() {
				s.bad = append(s.bad, fmt.Sprintf("stale cancel of %d reported true", id))
			}
			s.observe("stale cancel")
		case 5:
			s.fillGap(s.q.nextAt())
			s.observe("NextAt, then schedule inside the gap")
		case 6:
			s.q.runUntil(s.now() + s.rng.Float64()*20)
			s.fillGap(s.q.nextAt())
			s.observe("RunUntil, then schedule inside the gap")
		case 7:
			at := math.Max(math.MaxFloat64, s.now())
			if s.rng.IntN(4) == 0 {
				at = math.Inf(1)
			}
			s.schedule(at, 0)
			s.observe("schedule at MaxFloat64 or +Inf")
		}
	}
	for s.q.step() {
		s.observe("drain")
	}
	s.observe("drained")
}

// run is the whole script: the special keys, a long phase, and a short one
// that starts wherever the drain left the clock — +Inf when an event was
// scheduled there, so the top of the key space sees random operations too.
func (s *script) run() {
	for _, at := range []float64{math.Copysign(0, -1), 0, math.MaxFloat64, math.Inf(1), math.Copysign(0, -1), 0} {
		s.schedule(at, 0)
	}
	s.observe("schedule -0, 0, MaxFloat64, +Inf")
	s.phase(4000)
	s.phase(500)
}

// TestQueueMatchesHeapOracle drives the radix heap and the 4-ary heap it
// replaced with one seeded script — ties on a coarse grid, same-instant
// schedules from handlers, cancels of the head, of buried events and through
// stale timers, schedules into the gap NextAt and RunUntil peeked at, and the
// keys -0, 0, MaxFloat64 and +Inf — and compares fire order, Now, Processed
// and NextAt after every operation.
func TestQueueMatchesHeapOracle(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		got := &script{q: radixQueue{NewEngine()}, rng: rand.New(rand.NewPCG(seed, 7))}
		want := &script{q: &refEngine{}, rng: rand.New(rand.NewPCG(seed, 7))}
		got.run()
		want.run()
		for _, msg := range append(got.bad, want.bad...) {
			t.Errorf("seed %d: %s", seed, msg)
		}
		for i := range min(len(got.log), len(want.log)) {
			if got.log[i] != want.log[i] {
				t.Fatalf("seed %d, operation %d (%s):\n radix %+v\n  heap %+v", seed, i, want.log[i].op, got.log[i], want.log[i])
			}
		}
		if len(got.log) != len(want.log) {
			t.Fatalf("seed %d: %d operations against the oracle's %d", seed, len(got.log), len(want.log))
		}
		if !slices.Equal(got.fired, want.fired) {
			t.Fatalf("seed %d: fire orders differ", seed)
		}
		if len(got.fired) < len(got.timers)/2 {
			t.Errorf("seed %d: only %d of %d events fired; the script cancels too much to test order", seed, len(got.fired), len(got.timers))
		}
	}
}

// TestNextAtKeepsBase is the rule NextAt lives by: a peek past an empty gap
// must leave room to schedule inside it, below the peeked event.
func TestNextAtKeepsBase(t *testing.T) {
	e := NewEngine()
	var got []float64
	record := func() { got = append(got, e.Now()) }
	e.Schedule(1000, record)
	if at, ok := e.NextAt(); !ok || at != 1000 {
		t.Fatalf("NextAt = %v, %v, want 1000, true", at, ok)
	}
	e.RunUntil(10)
	e.Schedule(10, record)
	e.Schedule(999, record)
	e.Schedule(11, record)
	e.Run()
	if want := []float64{10, 11, 999, 1000}; !slices.Equal(got, want) {
		t.Errorf("fired at %v, want %v", got, want)
	}
}

// TestPendingShedsCancelled: cancelled entries leave the count when their
// bucket is redistributed, not only when they reach the front.
func TestPendingShedsCancelled(t *testing.T) {
	e := NewEngine()
	var timers []Timer
	for i := 0; i < 8; i++ {
		timers = append(timers, e.Schedule(float64(100+i), func() {}))
	}
	e.Schedule(1, func() {})
	for _, tm := range timers[1:] {
		tm.Cancel()
	}
	e.Step() // fires t=1 and leaves the 100s bucket alone
	if e.Pending() != 8 {
		t.Fatalf("Pending() = %d before the bucket is redistributed, want 8", e.Pending())
	}
	e.Step() // redistributes the bucket, dropping the 7 cancelled entries
	if e.Pending() != 0 || e.Now() != 100 {
		t.Errorf("after the t=100 event: Pending() = %d, Now() = %v, want 0, 100", e.Pending(), e.Now())
	}
}

// cloneR is the r of BenchmarkEngineCloneShape: r+1 copies per task.
const cloneR = 2

// cloneTask is one Clone task: its copies' finish events, and a control event
// (the task itself) that keeps the copy finishing first and kills the rest.
type cloneTask struct {
	finish [cloneR + 1]Timer
	at     [cloneR + 1]float64
}

func (c *cloneTask) Fire() {
	best := 0
	for k := range c.at {
		if c.at[k] < c.at[best] {
			best = k
		}
	}
	for k := range c.finish {
		if k != best {
			c.finish[k].Cancel()
		}
	}
}

// cloneArrivals is the task-arrival chain of BenchmarkEngineCloneShape.
type cloneArrivals struct {
	e       *Engine
	tasks   []cloneTask // a ring: a task's control fires before its slot is reused
	samples []float64   // Pareto(10, 1.5) task times, drawn up front
	n, left int
	done    countingHandler
}

func (a *cloneArrivals) Fire() {
	now := a.e.Now()
	t := &a.tasks[a.n%len(a.tasks)]
	for k := range t.finish {
		t.at[k] = now + a.samples[(a.n*(cloneR+1)+k)%len(a.samples)]
		t.finish[k] = a.e.ScheduleHandler(t.at[k], &a.done)
	}
	a.e.ScheduleHandler(now+6, t) // tauKill = 0.6 tmin, before any copy can finish
	a.n++
	if a.n < a.left {
		a.e.ScheduleHandler(now+0.05, a)
	}
}

// BenchmarkEngineCloneShape drives the queue with the traffic a Clone replay
// gives it: every task schedules r+1 finish events at Pareto-spread times
// and, at its control instant, cancels all but the earliest, so r of its r+2
// events are cancelled ones (43–44 % of a Clone stream's events are; 14–16 % of
// Restart's and Resume's). Tasks arrive 50 ms apart, ~600 in flight. One op
// is one task.
func BenchmarkEngineCloneShape(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	samples := make([]float64, 4096)
	for i := range samples {
		samples[i] = 10 * math.Pow(1-rng.Float64(), -1/1.5)
	}
	a := &cloneArrivals{e: NewEngine(), tasks: make([]cloneTask, 256), samples: samples, left: b.N}
	b.ReportAllocs()
	b.ResetTimer()
	a.e.ScheduleHandler(0, a)
	a.e.Run()
	if int(a.done) != b.N {
		b.Fatalf("%d tasks finished, want %d", a.done, b.N)
	}
}
