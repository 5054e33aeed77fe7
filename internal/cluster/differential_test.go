package cluster

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"chronos/internal/sim"
)

// The allocator keeps bitsets, counters, a ring and pools so that a grant
// costs O(1); what it is supposed to compute is much simpler than that. These
// tests drive it and a reference that computes the simple thing — scan every
// node for the least loaded, keep waiters in a slice, recurse on release —
// with the same random operations and require the same log of grants and
// revocations, the same contention draws and the same counters throughout.

// system is what the driver needs from either implementation. Holders are
// named by small integers; every grant, revocation and contention draw is
// appended to the log.
type system interface {
	allocate(holder int) bool
	request(holder int)
	cancel(holder int) bool
	release(holder int)
	fail(node int) int
	recover(node int)
	counters() string
	events() []string
}

// revoked is what every holder does when its node fails: give the container
// back and, for even holders, ask for another — so the revocation order
// decides who is served first.
func revoked(s system, holder int) {
	s.release(holder)
	if holder%2 == 0 {
		s.request(holder)
	}
}

// drawLog is a ContentionModel that records each draw, so a skipped or
// reordered one shows up.
type drawLog struct{ log *[]string }

func (d drawLog) Slowdown(now float64, node int, seed uint64) float64 {
	*d.log = append(*d.log, fmt.Sprintf("draw node=%d seed=%x", node, seed))
	return 1
}

// --- the real cluster ---

type realSystem struct {
	c       *Cluster
	held    map[int]*Container
	tickets map[int]Ticket
	log     []string
}

func newRealSystem(t *testing.T, nodes, slots int) *realSystem {
	r := &realSystem{held: map[int]*Container{}, tickets: map[int]Ticket{}}
	c, err := New(sim.NewEngine(), Config{Nodes: nodes, SlotsPerNode: slots, Contention: drawLog{&r.log}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r.c = c
	return r
}

func (r *realSystem) granted(holder int, ctr *Container) {
	r.log = append(r.log, fmt.Sprintf("grant %d on %d", holder, ctr.Node.ID))
	delete(r.tickets, holder)
	r.held[holder] = ctr
	ctr.SetRevokeHandler(func() {
		r.log = append(r.log, fmt.Sprintf("revoke %d", holder))
		revoked(r, holder)
	})
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

func (r *realSystem) fail(node int) int {
	n, _ := r.c.FailNode(node)
	return n
}

func (r *realSystem) recover(node int) { _ = r.c.RecoverNode(node) }

func (r *realSystem) counters() string {
	return fmt.Sprintf("inUse=%d capacity=%d queue=%d releases=%d",
		r.c.InUse(), r.c.Capacity(), r.c.QueueLength(), r.c.Meter().Releases())
}

func (r *realSystem) events() []string { return r.log }

// --- the reference ---

type refContainer struct {
	node   int
	holder int
}

type refNode struct {
	used   int
	failed bool
	live   []*refContainer // grant order
}

type refWaiter struct {
	holder int
	dead   bool
}

type refSystem struct {
	nodes    []refNode
	slots    int
	waiters  []*refWaiter
	held     map[int]*refContainer
	releases int
	draws    randState
	log      []string
}

func newRefSystem(nodes, slots int) *refSystem {
	return &refSystem{nodes: make([]refNode, nodes), slots: slots,
		held: map[int]*refContainer{}, draws: randState{seed: 3}}
}

// place is the specification of placement: the least-loaded node that is up
// and not full, lowest ID first.
func (r *refSystem) place() (*refContainer, bool) {
	best := -1
	for i, n := range r.nodes {
		if n.failed || n.used >= r.slots {
			continue
		}
		if best < 0 || n.used < r.nodes[best].used {
			best = i
		}
	}
	if best < 0 {
		return nil, false
	}
	r.nodes[best].used++
	r.log = append(r.log, fmt.Sprintf("draw node=%d seed=%x", best, r.draws.next()))
	ctr := &refContainer{node: best}
	r.nodes[best].live = append(r.nodes[best].live, ctr)
	return ctr, true
}

func (r *refSystem) granted(holder int, ctr *refContainer) {
	r.log = append(r.log, fmt.Sprintf("grant %d on %d", holder, ctr.node))
	ctr.holder = holder
	r.held[holder] = ctr
}

func (r *refSystem) allocate(holder int) bool {
	ctr, ok := r.place()
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
	n := &r.nodes[ctr.node]
	n.live = slices.DeleteFunc(n.live, func(c *refContainer) bool { return c == ctr })
	if !n.failed {
		n.used--
	}
	r.dispatch()
}

// dispatch is the original: a waiter that no longer wants its grant is
// granted anyway and hands it straight back, which recurses.
func (r *refSystem) dispatch() {
	for len(r.waiters) > 0 {
		ctr, ok := r.place()
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

func (r *refSystem) fail(node int) int {
	n := &r.nodes[node]
	if n.failed {
		return 0
	}
	n.failed = true
	victims := slices.Clone(n.live)
	for _, ctr := range victims {
		r.log = append(r.log, fmt.Sprintf("revoke %d", ctr.holder))
		revoked(r, ctr.holder)
	}
	return len(victims)
}

func (r *refSystem) recover(node int) {
	n := &r.nodes[node]
	if !n.failed {
		return
	}
	n.failed = false
	n.used = len(n.live)
	r.dispatch()
}

func (r *refSystem) counters() string {
	inUse, capacity := 0, 0
	for _, n := range r.nodes {
		inUse += n.used
		if !n.failed {
			capacity += r.slots
		}
	}
	return fmt.Sprintf("inUse=%d capacity=%d queue=%d releases=%d", inUse, capacity, len(r.waiters), r.releases)
}

func (r *refSystem) events() []string { return r.log }

// TestAllocatorMatchesLinearScan is the differential test.
func TestAllocatorMatchesLinearScan(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 99))
		// Word boundaries of the bitsets sit at 64, 128 and 256 nodes.
		nodes := 1 + rng.IntN(300)
		if trial < 8 {
			nodes = []int{1, 63, 64, 65, 128, 129, 256, 257}[trial]
		}
		slots := 1 + rng.IntN(9)
		real, ref := newRealSystem(t, nodes, slots), newRefSystem(nodes, slots)

		next := 0 // next unused holder name
		for op := 0; op < 1500; op++ {
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
			case k < 10:
				desc = fmt.Sprintf("allocate %d", next)
				a, b = real.allocate(next), ref.allocate(next)
				next++
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
			case k < 95:
				n := rng.IntN(nodes)
				desc = fmt.Sprintf("fail node %d", n)
				a, b = real.fail(n), ref.fail(n)
			default:
				n := rng.IntN(nodes)
				desc = fmt.Sprintf("recover node %d", n)
				real.recover(n)
				ref.recover(n)
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
