package cluster

import (
	"errors"
	"testing"

	"chronos/internal/race"
	"chronos/internal/sim"
)

func newTestCluster(t *testing.T, nodes, slots int) (*sim.Engine, *Cluster) {
	t.Helper()
	eng := sim.NewEngine()
	c, err := New(eng, Config{Nodes: nodes, SlotsPerNode: slots})
	if err != nil {
		t.Fatal(err)
	}
	return eng, c
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Nodes: 0, SlotsPerNode: 1}).Validate(); err == nil {
		t.Error("zero nodes accepted")
	}
	if err := (Config{Nodes: 1, SlotsPerNode: 0}).Validate(); err == nil {
		t.Error("zero slots accepted")
	}
	if err := (Config{Nodes: 1 << 32, SlotsPerNode: 1 << 32}).Validate(); err == nil {
		t.Error("a slot count past MaxInt accepted")
	}
	if err := (Config{Nodes: 4, SlotsPerNode: 8}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(sim.NewEngine(), Config{}); err == nil {
		t.Error("New accepted empty config")
	}
}

func TestAllocateUntilFull(t *testing.T) {
	_, c := newTestCluster(t, 2, 3)
	if c.Capacity() != 6 {
		t.Fatalf("Capacity() = %d, want 6", c.Capacity())
	}
	var grants []*Container
	for i := 0; i < 6; i++ {
		ctr, err := c.Allocate()
		if err != nil {
			t.Fatalf("allocation %d failed: %v", i, err)
		}
		grants = append(grants, ctr)
	}
	if _, err := c.Allocate(); !errors.Is(err, ErrNoCapacity) {
		t.Errorf("over-allocation error = %v, want ErrNoCapacity", err)
	}
	if c.InUse() != 6 {
		t.Errorf("InUse() = %d, want 6", c.InUse())
	}
	for _, g := range grants {
		c.Release(g)
	}
	if c.InUse() != 0 {
		t.Errorf("InUse() after releases = %d, want 0", c.InUse())
	}
}

func TestRequestQueuesFIFO(t *testing.T) {
	_, c := newTestCluster(t, 1, 1)
	first, err := c.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		c.Request(func(ctr *Container) {
			order = append(order, i)
			c.Release(ctr)
		})
	}
	if c.QueueLength() != 3 {
		t.Fatalf("QueueLength() = %d, want 3", c.QueueLength())
	}
	// Releasing the held container lets the whole chain drain in order.
	c.Release(first)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("grant order = %v, want [0 1 2]", order)
	}
}

func TestRequestImmediateWhenFree(t *testing.T) {
	_, c := newTestCluster(t, 1, 1)
	granted := false
	c.Request(func(ctr *Container) {
		granted = true
		c.Release(ctr)
	})
	if !granted {
		t.Error("Request with free capacity did not grant synchronously")
	}
}

func TestMeterCharging(t *testing.T) {
	eng, c := newTestCluster(t, 1, 2)
	a, _ := c.Allocate()
	eng.Schedule(10, func() { c.Release(a) })
	b := 0.0
	eng.Schedule(3, func() {
		ctr, err := c.Allocate()
		if err != nil {
			t.Errorf("allocate at t=3: %v", err)
			return
		}
		eng.Schedule(7, func() {
			c.Release(ctr)
			b = eng.Now() - ctr.AcquiredAt
		})
	})
	eng.Run()
	// a held [0,10] = 10; b held [3,7] = 4.
	if got := c.Meter().MachineTime(); got != 14 {
		t.Errorf("MachineTime() = %v, want 14", got)
	}
	if c.Meter().Releases() != 2 {
		t.Errorf("Releases() = %d, want 2", c.Meter().Releases())
	}
	if b != 4 {
		t.Errorf("second container occupancy = %v, want 4", b)
	}
}

// TestResetEmptiesCluster holds a recycled cluster to a new one: every slot
// free at the new size, an empty queue that a stale Ticket cannot reach, a
// zero meter, and nothing of the ended run's waiters granted.
func TestResetEmptiesCluster(t *testing.T) {
	eng, c := newTestCluster(t, 1, 1)
	c.Allocate()
	old := c.RequestFor(grantFunc(func(*Container) { t.Error("a waiter from before Reset was granted") }))
	eng.Reset()
	if err := c.Reset(Config{Nodes: 0, SlotsPerNode: 1}); err == nil {
		t.Fatal("Reset accepted a cluster of no slots")
	}
	if err := c.Reset(Config{Nodes: 2, SlotsPerNode: 1}); err != nil {
		t.Fatal(err)
	}
	if c.Capacity() != 2 || c.InUse() != 0 || c.QueueLength() != 0 ||
		c.Meter().MachineTime() != 0 || c.Meter().Releases() != 0 {
		t.Fatalf("after Reset: capacity %d, in use %d, queue %d, meter %v/%d",
			c.Capacity(), c.InUse(), c.QueueLength(), c.Meter().MachineTime(), c.Meter().Releases())
	}
	a, _ := c.Allocate()
	b, _ := c.Allocate()
	granted := 0
	fresh := c.RequestFor(grantFunc(func(*Container) { granted++ }))
	if c.Cancel(old) {
		t.Error("a Ticket from before Reset cancelled a request made after it")
	}
	eng.Schedule(1, func() { c.Release(a); c.Release(b) })
	eng.Run()
	if granted != 1 || fresh == 0 {
		t.Errorf("request after Reset granted %d times (ticket %d)", granted, fresh)
	}
	if got := c.Meter().MachineTime(); got != 2 {
		t.Errorf("MachineTime() = %v, want 2", got)
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	_, c := newTestCluster(t, 1, 1)
	ctr, _ := c.Allocate()
	c.Release(ctr)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	c.Release(ctr)
}

// TestAllocateReleaseZeroAlloc pins the grant path: containers are pooled and
// the waiter queue is a ring, so neither a grant and release nor a request
// that queues, is cancelled and is served allocates once warm.
func TestAllocateReleaseZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc counts only hold without -race")
	}
	_, c := newTestCluster(t, 256, 8)
	var held []*Container
	for i := 0; i < 2047; i++ { // leave one slot free
		ctr, err := c.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, ctr)
	}
	var w pooledWaiter
	w.c = c
	allocs := testing.AllocsPerRun(2000, func() {
		ctr, err := c.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		c.RequestFor(&w)           // full: queues
		c.Cancel(c.RequestFor(&w)) // queues, then withdrawn
		c.Release(ctr)             // serves the first, which releases; then the dead one
	})
	if allocs != 0 {
		t.Errorf("%g allocs per allocate/request/release round, want 0", allocs)
	}
	if w.grants == 0 || c.QueueLength() != 0 || c.InUse() != len(held) {
		t.Errorf("rounds did not drain: %d grants, queue %d, in use %d", w.grants, c.QueueLength(), c.InUse())
	}
}

// pooledWaiter releases whatever it is granted.
type pooledWaiter struct {
	c      *Cluster
	grants int
}

func (w *pooledWaiter) Granted(ctr *Container) {
	w.grants++
	w.c.Release(ctr)
}
