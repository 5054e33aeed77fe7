// Package cluster models the datacenter substrate Chronos schedules on: a
// pool of Nodes × SlotsPerNode container slots, a FIFO allocation queue and a
// usage meter that converts container occupancy into machine time.
//
// Only the product of the two sizes is simulated. The paper's model has no
// notion of placement — an attempt's duration depends on its own sampled
// draws, never on the machine it lands on — so which node hosts a container
// changes nothing a job, the meter or a strategy can observe. The two fields
// stay because they are how a testbed is described (the paper's EC2 cluster:
// nodes of 8 vCPUs).
package cluster

import (
	"errors"
	"fmt"
	"math"

	"chronos/internal/sim"
)

// Config describes a simulated cluster.
type Config struct {
	// Nodes is the number of worker nodes.
	Nodes int
	// SlotsPerNode is the number of concurrently running containers a node
	// supports (vCPUs in the paper's EC2 testbed: 8).
	SlotsPerNode int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Nodes < 1 || c.SlotsPerNode < 1 {
		return fmt.Errorf("cluster: need at least 1 node and 1 slot, got %d x %d",
			c.Nodes, c.SlotsPerNode)
	}
	if c.Nodes > math.MaxInt/c.SlotsPerNode {
		return fmt.Errorf("cluster: %d x %d slots overflow the slot count", c.Nodes, c.SlotsPerNode)
	}
	return nil
}

// Container is a granted slot. It is leased from Allocate/Request and
// returned with Release, after which the cluster reuses it for a later
// grant: a holder must drop its pointer when it releases.
type Container struct {
	// AcquiredAt is the grant time, used by the meter.
	AcquiredAt float64

	released bool
}

// containerChunk is how many containers the cluster allocates at a time.
const containerChunk = 64

// ErrNoCapacity reports a synchronous allocation failure.
var ErrNoCapacity = errors.New("cluster: no free container")

// Waiter receives the container a request was waiting for. As with
// sim.Handler, a pointer-shaped implementation queues without allocating.
type Waiter interface {
	Granted(*Container)
}

// grantFunc adapts the func of Request to Waiter.
type grantFunc func(*Container)

func (f grantFunc) Granted(ctr *Container) { f(ctr) }

// Ticket names a queued request so it can be cancelled; the zero Ticket
// names none (the request was granted at once).
type Ticket uint64

// Cluster tracks slot occupancy, the allocation wait queue and machine-time
// metering.
type Cluster struct {
	eng   *sim.Engine
	meter Meter
	// capacity counts all slots, inUse the occupied ones.
	capacity, inUse int

	// queue is a ring of the pending requests, oldest at qhead; a cancelled
	// request stays in place as a nil entry. served counts the requests
	// that have left the ring, so the entry at offset i holds Ticket
	// served+i+1.
	queue  []Waiter
	qhead  int
	qlen   int
	served uint64

	// pool holds containers for reuse: released ones, and the rest of the
	// last slab allocated.
	pool []*Container
}

// New builds a cluster bound to the engine.
func New(eng *sim.Engine, cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Cluster{eng: eng, capacity: cfg.Nodes * cfg.SlotsPerNode}, nil
}

// Reset empties the cluster for a new run on cfg, as New would build it:
// every slot free, the queue empty, the meter at zero. The queue ring keeps
// its capacity and the container pool its containers, which is what a
// recycled cluster is for; the ring's waiters are dropped, so the cluster
// holds no reference into the run that ended. served keeps counting, so a
// Ticket from before the reset names no later request. A container still
// held when the run ended is not taken back: its holder keeps a pointer to
// it, and the pool grows a fresh one when it runs short.
func (c *Cluster) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	c.capacity, c.inUse, c.meter = cfg.Nodes*cfg.SlotsPerNode, 0, Meter{}
	clear(c.queue)
	c.served += uint64(c.qlen)
	c.qhead, c.qlen = 0, 0
	return nil
}

// Meter exposes the usage meter.
func (c *Cluster) Meter() *Meter { return &c.meter }

// Capacity returns the total number of slots.
func (c *Cluster) Capacity() int { return c.capacity }

// InUse returns the number of occupied slots.
func (c *Cluster) InUse() int { return c.inUse }

// Allocate grants a container immediately or returns ErrNoCapacity.
func (c *Cluster) Allocate() (*Container, error) {
	if c.inUse == c.capacity {
		return nil, ErrNoCapacity
	}
	c.inUse++
	if len(c.pool) == 0 {
		slab := make([]Container, containerChunk)
		for i := range slab {
			c.pool = append(c.pool, &slab[i])
		}
	}
	ctr := c.pool[len(c.pool)-1]
	c.pool = c.pool[:len(c.pool)-1]
	*ctr = Container{AcquiredAt: c.eng.Now()}
	return ctr, nil
}

// Request grants a container to fn as soon as one is available: immediately
// if there is capacity, otherwise when a container is released (FIFO).
func (c *Cluster) Request(fn func(*Container)) {
	c.RequestFor(grantFunc(fn))
}

// RequestFor is Request for a Waiter, and returns the Ticket that cancels
// the request while it is queued.
func (c *Cluster) RequestFor(w Waiter) Ticket {
	if ctr, err := c.Allocate(); err == nil {
		w.Granted(ctr)
		return 0
	}
	if c.qlen == len(c.queue) {
		c.growQueue()
	}
	c.queue[(c.qhead+c.qlen)&(len(c.queue)-1)] = w
	c.qlen++
	return Ticket(c.served + uint64(c.qlen))
}

// growQueue doubles the ring (a power of two, so offsets wrap with a mask),
// moving the oldest entry to index 0.
func (c *Cluster) growQueue() {
	grown := make([]Waiter, max(16, 2*len(c.queue)))
	k := copy(grown, c.queue[c.qhead:])
	copy(grown[k:], c.queue[:c.qhead])
	c.queue, c.qhead = grown, 0
}

// Cancel withdraws a queued request and reports whether it was still
// waiting. The request keeps its place in the queue and, when it reaches the
// head, is still granted a container that goes straight back: that is what a
// waiter that no longer wants its grant does, and it leaves the meter's
// release count where it would have been.
func (c *Cluster) Cancel(t Ticket) bool {
	i := uint64(t) - c.served - 1 // wraps to a huge offset when t <= served
	if i >= uint64(c.qlen) {
		return false
	}
	w := &c.queue[(c.qhead+int(i))&(len(c.queue)-1)]
	if *w == nil {
		return false
	}
	*w = nil
	return true
}

// QueueLength returns the number of waiting allocation requests, cancelled
// ones that have not reached the head included.
func (c *Cluster) QueueLength() int { return c.qlen }

// Release returns a container and charges its occupancy to the meter.
// Double release panics: it is always an accounting bug.
func (c *Cluster) Release(ctr *Container) {
	c.release(ctr)
	c.dispatch()
}

func (c *Cluster) release(ctr *Container) {
	if ctr.released {
		panic("cluster: double release of container")
	}
	ctr.released = true
	c.meter.charge(c.eng.Now() - ctr.AcquiredAt)
	c.pool = append(c.pool, ctr)
	c.inUse--
}

// dispatch hands freed capacity to waiting requests.
func (c *Cluster) dispatch() {
	for c.qlen > 0 {
		ctr, err := c.Allocate()
		if err != nil {
			return
		}
		w := c.queue[c.qhead]
		c.queue[c.qhead] = nil
		c.qhead = (c.qhead + 1) & (len(c.queue) - 1)
		c.qlen--
		c.served++
		if w == nil {
			c.release(ctr) // cancelled while queued; see Cancel
			continue
		}
		w.Granted(ctr)
	}
}
