package cluster

import (
	"slices"
	"testing"

	"chronos/internal/sim"
)

func TestRecoverNode(t *testing.T) {
	_, c := newTestCluster(t, 2, 2)
	if _, err := c.FailNode(0); err != nil {
		t.Fatal(err)
	}
	if c.Capacity() != 2 {
		t.Fatalf("capacity after failure = %d, want 2", c.Capacity())
	}
	if err := c.RecoverNode(0); err != nil {
		t.Fatal(err)
	}
	if c.Capacity() != 4 {
		t.Errorf("capacity after recovery = %d, want 4", c.Capacity())
	}
	// Recovery is idempotent and bounds-checked.
	if err := c.RecoverNode(0); err != nil {
		t.Errorf("second recovery errored: %v", err)
	}
	if err := c.RecoverNode(9); err == nil {
		t.Error("out-of-range recovery accepted")
	}
}

func TestRecoveryDispatchesWaiters(t *testing.T) {
	_, c := newTestCluster(t, 1, 1)
	if _, err := c.FailNode(0); err != nil {
		t.Fatal(err)
	}
	granted := false
	c.Request(func(ctr *Container) {
		granted = true
		c.Release(ctr)
	})
	if granted {
		t.Fatal("request granted while the only node is down")
	}
	if err := c.RecoverNode(0); err != nil {
		t.Fatal(err)
	}
	if !granted {
		t.Error("recovery did not dispatch the waiting request")
	}
}

func TestFailureInjectorDisabled(t *testing.T) {
	eng := sim.NewEngine()
	c, err := New(eng, Config{Nodes: 4, SlotsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n := (FailureInjector{}).Install(eng, c); n != 0 {
		t.Errorf("disabled injector armed %d nodes", n)
	}
	if eng.Pending() != 0 {
		t.Errorf("disabled injector scheduled %d events", eng.Pending())
	}
}

func TestFailureInjectorFailsAndRecovers(t *testing.T) {
	eng := sim.NewEngine()
	c, err := New(eng, Config{Nodes: 8, SlotsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	fi := FailureInjector{MTBF: 100, MTTR: 20, Horizon: 2000, Seed: 3}
	if n := fi.Install(eng, c); n != 8 {
		t.Fatalf("armed %d nodes, want 8", n)
	}
	// Track the capacity trajectory.
	minCap, sawRecovery := c.Capacity(), false
	prev := c.Capacity()
	for eng.Step() {
		if cap := c.Capacity(); cap != prev {
			if cap < minCap {
				minCap = cap
			}
			if cap > prev {
				sawRecovery = true
			}
			prev = cap
		}
	}
	if minCap == 16 {
		t.Error("no failure ever reduced capacity")
	}
	if !sawRecovery {
		t.Error("no node ever recovered")
	}
	// All failures bounded by the horizon, and the engine drained.
	if eng.Pending() != 0 {
		t.Errorf("%d events still pending", eng.Pending())
	}
}

// TestFailureInjectorDeterministic runs the injector over a cluster whose
// slots are all held, by holders that on revocation release and ask again:
// the order holders are revoked in decides who gets the next free slot, so it
// has to be the same from run to run (it is grant order; it used to be the
// iteration order of a map).
func TestFailureInjectorDeterministic(t *testing.T) {
	run := func() (uint64, []int) {
		eng := sim.NewEngine()
		c, err := New(eng, Config{Nodes: 4, SlotsPerNode: 3})
		if err != nil {
			t.Fatal(err)
		}
		var revoked []int
		var hold func(id int)
		hold = func(id int) {
			c.Request(func(ctr *Container) {
				ctr.SetRevokeHandler(func() {
					revoked = append(revoked, id, ctr.Node.ID)
					c.Release(ctr)
					hold(id)
				})
			})
		}
		for id := 0; id < 16; id++ { // 12 slots: four holders start queued
			hold(id)
		}
		FailureInjector{MTBF: 50, MTTR: 10, Horizon: 1000, Seed: 7}.Install(eng, c)
		eng.Run()
		return eng.Processed(), revoked
	}
	events, revoked := run()
	if len(revoked) == 0 {
		t.Fatal("no container was ever revoked")
	}
	for i := 0; i < 4; i++ {
		e, r := run()
		if e != events {
			t.Fatalf("injector not deterministic: %d vs %d events", e, events)
		}
		if !slices.Equal(r, revoked) {
			t.Fatalf("run %d revoked %d (holder, node) pairs in a different order than the first", i+2, len(r)/2)
		}
	}
}
