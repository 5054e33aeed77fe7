package cluster

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"chronos/internal/sim"
)

// The allocator keeps a ring of waiters with tickets and a container pool so
// that a grant costs O(1); what it is supposed to compute is much simpler
// than that. These tests drive it and a reference that computes the simple
// thing — count free slots, keep waiters in a slice, recurse on release —
// with the same random operations, on a clock that moves between them, and
// require the same log of grants and the same counters throughout.

// system is what the driver needs from either implementation. Holders are
// named by small integers; every grant is appended to the log.
type system interface {
	advance(now float64)
	allocate(holder int) bool
	request(holder int)
	cancel(holder int) bool
	release(holder int)
	counters() string
	events() []string
}

// --- the real cluster ---

type realSystem struct {
	eng     *sim.Engine
	c       *Cluster
	held    map[int]*Container
	tickets map[int]Ticket
	log     []string
}

func newRealSystem(t *testing.T, nodes, slots int) *realSystem {
	r := &realSystem{eng: sim.NewEngine(), held: map[int]*Container{}, tickets: map[int]Ticket{}}
	c, err := New(r.eng, Config{Nodes: nodes, SlotsPerNode: slots})
	if err != nil {
		t.Fatal(err)
	}
	r.c = c
	return r
}

func (r *realSystem) granted(holder int, ctr *Container) {
	r.log = append(r.log, fmt.Sprintf("grant %d", holder))
	delete(r.tickets, holder)
	r.held[holder] = ctr
}

func (r *realSystem) allocate(holder int) bool {
	ctr, err := r.c.Allocate()
	if err != nil {
		return false
	}
	r.granted(holder, ctr)
	return true
}

// waiterOf is a Waiter, so the driver goes through RequestFor and Cancel —
// the path the MapReduce runtime uses — while the FIFO test keeps Request.
type waiterOf struct {
	r      *realSystem
	holder int
}

func (w waiterOf) Granted(ctr *Container) { w.r.granted(w.holder, ctr) }

func (r *realSystem) request(holder int) {
	if t := r.c.RequestFor(waiterOf{r, holder}); t != 0 {
		r.tickets[holder] = t
	}
}

func (r *realSystem) cancel(holder int) bool {
	t := r.tickets[holder]
	delete(r.tickets, holder)
	return r.c.Cancel(t)
}

func (r *realSystem) release(holder int) {
	ctr := r.held[holder]
	delete(r.held, holder)
	r.c.Release(ctr)
}

func (r *realSystem) advance(now float64) { r.eng.RunUntil(now) }

func (r *realSystem) counters() string {
	return fmt.Sprintf("inUse=%d capacity=%d queue=%d machineTime=%g releases=%d",
		r.c.InUse(), r.c.Capacity(), r.c.QueueLength(), r.c.Meter().MachineTime(), r.c.Meter().Releases())
}

func (r *realSystem) events() []string { return r.log }

// --- the reference ---

type refContainer struct {
	acquiredAt float64
}

type refWaiter struct {
	holder int
	dead   bool
}

type refSystem struct {
	now         float64
	capacity    int
	inUse       int
	waiters     []*refWaiter
	held        map[int]*refContainer
	machineTime float64
	releases    int
	log         []string
}

func newRefSystem(nodes, slots int) *refSystem {
	return &refSystem{capacity: nodes * slots, held: map[int]*refContainer{}}
}

// take is the specification of a grant: any free slot will do.
func (r *refSystem) take() (*refContainer, bool) {
	if r.inUse == r.capacity {
		return nil, false
	}
	r.inUse++
	return &refContainer{acquiredAt: r.now}, true
}

func (r *refSystem) granted(holder int, ctr *refContainer) {
	r.log = append(r.log, fmt.Sprintf("grant %d", holder))
	r.held[holder] = ctr
}

func (r *refSystem) allocate(holder int) bool {
	ctr, ok := r.take()
	if ok {
		r.granted(holder, ctr)
	}
	return ok
}

func (r *refSystem) request(holder int) {
	if !r.allocate(holder) {
		r.waiters = append(r.waiters, &refWaiter{holder: holder})
	}
}

func (r *refSystem) cancel(holder int) bool {
	for _, w := range r.waiters {
		if w.holder == holder && !w.dead {
			w.dead = true
			return true
		}
	}
	return false
}

func (r *refSystem) release(holder int) {
	ctr := r.held[holder]
	delete(r.held, holder)
	r.giveBack(ctr)
}

func (r *refSystem) giveBack(ctr *refContainer) {
	r.releases++
	r.machineTime += r.now - ctr.acquiredAt
	r.inUse--
	r.dispatch()
}

// dispatch is the original: a waiter that no longer wants its grant is
// granted anyway and hands it straight back, which recurses.
func (r *refSystem) dispatch() {
	for len(r.waiters) > 0 {
		ctr, ok := r.take()
		if !ok {
			return
		}
		w := r.waiters[0]
		r.waiters = r.waiters[1:]
		if w.dead {
			r.giveBack(ctr)
		} else {
			r.granted(w.holder, ctr)
		}
	}
}

func (r *refSystem) advance(now float64) { r.now = now }

func (r *refSystem) counters() string {
	return fmt.Sprintf("inUse=%d capacity=%d queue=%d machineTime=%g releases=%d",
		r.inUse, r.capacity, len(r.waiters), r.machineTime, r.releases)
}

func (r *refSystem) events() []string { return r.log }

// TestAllocatorMatchesLinearScan is the differential test.
func TestAllocatorMatchesLinearScan(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 99))
		nodes := 1 + rng.IntN(300)
		if trial < 8 {
			nodes = []int{1, 63, 64, 65, 128, 129, 256, 257}[trial]
		}
		slots := 1 + rng.IntN(9)
		real, ref := newRealSystem(t, nodes, slots), newRefSystem(nodes, slots)

		next := 0 // next unused holder name
		for op := 0; op < 1500; op++ {
			real.advance(float64(op))
			ref.advance(float64(op))
			// The reference's state picks the operands; if the two have
			// diverged the comparison below has already failed.
			heldNow := sortedKeys(ref.held)
			var queued []int
			for _, w := range ref.waiters {
				if !w.dead {
					queued = append(queued, w.holder)
				}
			}
			var desc string
			var a, b any
			switch k := rng.IntN(100); {
			case k < 45:
				// Bursts fill the cluster, so requests queue.
				for i := rng.IntN(2 * slots); i >= 0; i-- {
					real.request(next)
					ref.request(next)
					next++
				}
				desc = fmt.Sprintf("requests up to %d", next)
			case k < 80 && len(heldNow) > 0:
				desc = "releases"
				for i := rng.IntN(2 * slots); i >= 0 && len(heldNow) > 0; i-- {
					h := heldNow[rng.IntN(len(heldNow))]
					real.release(h)
					ref.release(h)
					// A release grants to waiters, so the holders change
					// under the loop.
					heldNow = sortedKeys(ref.held)
				}
			case k < 90 && len(queued) > 0:
				h := queued[rng.IntN(len(queued))]
				desc = fmt.Sprintf("cancel %d", h)
				a, b = real.cancel(h), ref.cancel(h)
			default:
				desc = fmt.Sprintf("allocate %d", next)
				a, b = real.allocate(next), ref.allocate(next)
				next++
			}
			if a != b {
				t.Fatalf("trial %d (%dx%d) op %d, %s: returned %v, reference %v", trial, nodes, slots, op, desc, a, b)
			}
			if got, want := real.counters(), ref.counters(); got != want {
				t.Fatalf("trial %d (%dx%d) op %d, %s: %s, reference %s", trial, nodes, slots, op, desc, got, want)
			}
			got, want := real.events(), ref.events()
			for i := 0; i < len(got) || i < len(want); i++ {
				if i >= len(got) || i >= len(want) || got[i] != want[i] {
					t.Fatalf("trial %d (%dx%d) op %d, %s: event %d is %q, reference %q",
						trial, nodes, slots, op, desc, i, at(got, i), at(want, i))
				}
			}
			real.log, ref.log = real.log[:0], ref.log[:0]
		}
	}
}

func sortedKeys(m map[int]*refContainer) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "(none)"
}
