package cluster

import (
	"fmt"
	"math"

	"chronos/internal/pareto"
	"chronos/internal/sim"
)

// RecoverNode returns a failed node to service; its slots become allocatable
// again and queued requests are dispatched onto it.
func (c *Cluster) RecoverNode(id int) error {
	if id < 0 || id >= len(c.nodes) {
		return fmt.Errorf("cluster: no node %d", id)
	}
	n := c.nodes[id]
	if !n.failed {
		return nil
	}
	n.failed = false
	// Containers revoked while the node was down did not give their slots
	// back (Release skips a failed node); what is still held is the load.
	c.inUse += n.live - n.used
	n.used = n.live
	c.capacity += n.slots
	c.free += n.slots - n.used
	if n.used < n.slots {
		c.setLevel(n, true)
	}
	c.dispatch()
	return nil
}

// FailureInjector schedules random node failures (and recoveries) on the
// engine, modelling the hardware/software faults the paper lists as a root
// cause of stragglers. Failures arrive per node as a Poisson process with
// the given MTBF; failed nodes return after MTTR (exponentially
// distributed). Containers on a failing node are revoked through their
// revoke handlers, which the mapreduce runtime translates into
// attempt-failed events.
type FailureInjector struct {
	// MTBF is the per-node mean time between failures (seconds). Zero or
	// negative disables injection.
	MTBF float64
	// MTTR is the mean node repair time (seconds); zero means nodes never
	// recover.
	MTTR float64
	// Horizon bounds injection: no failures are scheduled after it.
	Horizon float64
	// Seed drives the failure process.
	Seed uint64
}

// Install arms the injector: each node gets an independent failure clock.
// Returns the number of nodes armed.
func (fi FailureInjector) Install(eng *sim.Engine, c *Cluster) int {
	if fi.MTBF <= 0 || fi.Horizon <= 0 {
		return 0
	}
	for _, n := range c.nodes {
		rng := pareto.NewStream(fi.Seed, 0xFA11, uint64(n.ID))
		fi.scheduleNext(eng, c, n.ID, rng, eng.Now())
	}
	return len(c.nodes)
}

// scheduleNext arms the next failure of one node.
func (fi FailureInjector) scheduleNext(eng *sim.Engine, c *Cluster, id int, rng expSource, from float64) {
	at := from + exp(rng, fi.MTBF)
	if at > fi.Horizon {
		return
	}
	eng.Schedule(at, func() {
		// The node may still be down from a previous failure whose repair
		// is pending; FailNode is a no-op then.
		_, _ = c.FailNode(id)
		if fi.MTTR > 0 {
			repair := exp(rng, fi.MTTR)
			eng.After(repair, func() {
				_ = c.RecoverNode(id)
			})
		}
		fi.scheduleNext(eng, c, id, rng, eng.Now())
	})
}

// expSource is the subset of rand.Rand the injector draws from.
type expSource interface{ ExpFloat64() float64 }

// exp draws an exponential variate with the given mean, guarding against
// pathological zero draws.
func exp(rng expSource, mean float64) float64 {
	return math.Max(1e-9, rng.ExpFloat64()*mean)
}
