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

func TestAllocateSpreadsLoad(t *testing.T) {
	_, c := newTestCluster(t, 4, 2)
	seen := make(map[int]int)
	for i := 0; i < 4; i++ {
		ctr, err := c.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		seen[ctr.Node.ID]++
	}
	// Least-loaded-first placement puts the first 4 containers on 4 nodes.
	if len(seen) != 4 {
		t.Errorf("4 allocations used %d nodes, want 4 (spreading)", len(seen))
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

func TestFailNodeRevokes(t *testing.T) {
	_, c := newTestCluster(t, 2, 2)
	var revoked []*Container
	var grants []*Container
	for i := 0; i < 4; i++ {
		ctr, err := c.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		grants = append(grants, ctr)
		ctr.SetRevokeHandler(func() {
			revoked = append(revoked, ctr)
			c.Release(ctr)
		})
	}
	n, err := c.FailNode(0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("FailNode revoked %d containers, want 2", n)
	}
	if len(revoked) != 2 {
		t.Errorf("revoke handlers ran %d times, want 2", len(revoked))
	}
	// Failed node is out of capacity.
	if c.Capacity() != 2 {
		t.Errorf("Capacity() after failure = %d, want 2", c.Capacity())
	}
	// Containers on the healthy node are untouched.
	for _, g := range grants {
		if g.Node.ID != 0 && g.released {
			t.Error("container on healthy node was revoked")
		}
	}
	// Failing again is a no-op.
	if n, _ := c.FailNode(0); n != 0 {
		t.Errorf("second FailNode revoked %d, want 0", n)
	}
	// Out-of-range node id errors.
	if _, err := c.FailNode(99); err == nil {
		t.Error("FailNode(99) succeeded")
	}
}

func TestAllocationSkipsFailedNodes(t *testing.T) {
	_, c := newTestCluster(t, 2, 1)
	if _, err := c.FailNode(0); err != nil {
		t.Fatal(err)
	}
	ctr, err := c.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if ctr.Node.ID != 1 {
		t.Errorf("allocation landed on failed node %d", ctr.Node.ID)
	}
}

func TestHotspotContention(t *testing.T) {
	h := HotspotContention{P: 0.3, Mean: 3}
	slowed, total := 0, 20000
	var sum float64
	for i := 0; i < total; i++ {
		s := h.Slowdown(0, 0, uint64(i))
		if s < 1 {
			t.Fatalf("slowdown %v < 1", s)
		}
		if s > 1 {
			slowed++
			sum += s
		}
	}
	frac := float64(slowed) / float64(total)
	if frac < 0.27 || frac > 0.33 {
		t.Errorf("contended fraction = %v, want ~0.3", frac)
	}
	if mean := sum / float64(slowed); mean < 2.8 || mean > 3.2 {
		t.Errorf("mean contended slowdown = %v, want ~3", mean)
	}
	// Degenerate mean <= 1 never slows down.
	if got := (HotspotContention{P: 1, Mean: 1}).Slowdown(0, 0, 5); got != 1 {
		t.Errorf("degenerate hotspot slowdown = %v, want 1", got)
	}
}

func TestContentionAppliedAtAllocate(t *testing.T) {
	eng := sim.NewEngine()
	c, err := New(eng, Config{
		Nodes: 1, SlotsPerNode: 4,
		Contention: HotspotContention{P: 1, Mean: 2},
		Seed:       9,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctr, err := c.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if ctr.Slowdown <= 1 {
		t.Errorf("Slowdown = %v, want > 1 under P=1 contention", ctr.Slowdown)
	}
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
