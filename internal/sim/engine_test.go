package sim

import (
	"math"
	"math/rand/v2"
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
