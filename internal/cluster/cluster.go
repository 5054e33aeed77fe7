// Package cluster models the datacenter substrate Chronos schedules on:
// nodes with a fixed number of container slots, a FIFO allocation queue, a
// usage meter that converts container occupancy into machine time and cost
// (spot pricing), background resource contention that slows attempts down,
// and optional node-failure injection.
package cluster

import (
	"errors"
	"fmt"
	"math/bits"

	"chronos/internal/pareto"
	"chronos/internal/sim"
)

// Config describes a simulated cluster.
type Config struct {
	// Nodes is the number of worker nodes.
	Nodes int
	// SlotsPerNode is the number of concurrently running containers a node
	// supports (vCPUs in the paper's EC2 testbed: 8).
	SlotsPerNode int
	// Contention injects background load: an attempt placed on a node runs
	// slower by a sampled slowdown factor. Nil means no contention.
	Contention ContentionModel
	// Seed drives the contention randomness.
	Seed uint64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Nodes < 1 || c.SlotsPerNode < 1 {
		return fmt.Errorf("cluster: need at least 1 node and 1 slot, got %d x %d",
			c.Nodes, c.SlotsPerNode)
	}
	return nil
}

// Node is one worker machine.
type Node struct {
	// ID is the node index.
	ID int

	slots  int
	used   int
	failed bool
	// head and tail bound the node's outstanding containers, linked in
	// grant order — the order a failure revokes them in — and live counts
	// them.
	head, tail *Container
	live       int
}

// Container is a granted slot on a node. It is leased from Allocate/Request
// and returned with Release, after which the cluster reuses it for a later
// grant: a holder must drop its pointer when it releases.
type Container struct {
	// Node hosting this container.
	Node *Node
	// AcquiredAt is the grant time, used by the meter.
	AcquiredAt float64
	// Slowdown is the contention factor sampled at grant time; execution on
	// this container takes Slowdown times the intrinsic duration.
	Slowdown float64

	revoke   Revoker
	released bool
	// prev and next link the container into its node's live list.
	prev, next *Container
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

// Revoker is told when the node under a held container fails.
type Revoker interface {
	Revoked()
}

// revokeFunc adapts the func of SetRevokeHandler to Revoker.
type revokeFunc func()

func (f revokeFunc) Revoked() { f() }

// Ticket names a queued request so it can be cancelled; the zero Ticket
// names none (the request was granted at once).
type Ticket uint64

// Cluster tracks slot occupancy, the allocation wait queue, machine-time
// metering, and failure state.
type Cluster struct {
	cfg   Config
	eng   *sim.Engine
	nodes []*Node
	meter Meter
	rng   randState

	// Placement is least-loaded first, lowest ID on ties. levels holds one
	// bitset over node IDs per load: bit id of level l is set while node id
	// is up, has l slots used and at least one free, so the pick is the
	// first set bit of the lowest non-empty level. levelNodes counts the
	// bits of each level and no level below lowest has any.
	levels     []uint64
	words      int
	levelNodes []int
	lowest     int
	// free counts the slots a grant could take, capacity the slots of nodes
	// that are up, and inUse the occupied ones — which on a failed node
	// stay counted until it recovers, as Node.used does.
	free, capacity, inUse int

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

// randState derives a fresh sub-seed per draw, keeping contention sampling
// deterministic without sharing a stream with the workload.
type randState struct {
	seed uint64
	n    uint64
}

func (r *randState) next() uint64 {
	r.n++
	return pareto.DeriveSeed(r.seed, r.n)
}

// New builds a cluster bound to the engine.
func New(eng *sim.Engine, cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	words := (cfg.Nodes + 63) / 64
	c := &Cluster{
		cfg:        cfg,
		eng:        eng,
		nodes:      make([]*Node, cfg.Nodes),
		rng:        randState{seed: cfg.Seed},
		levels:     make([]uint64, cfg.SlotsPerNode*words),
		words:      words,
		levelNodes: make([]int, cfg.SlotsPerNode),
		free:       cfg.Nodes * cfg.SlotsPerNode,
		capacity:   cfg.Nodes * cfg.SlotsPerNode,
	}
	slab := make([]Node, cfg.Nodes)
	for i := range slab {
		slab[i] = Node{ID: i, slots: cfg.SlotsPerNode}
		c.nodes[i] = &slab[i]
		c.setLevel(&slab[i], true)
	}
	return c, nil
}

// setLevel adds node n to, or removes it from, the level of its current
// load. Only a node that is up and not full is ever in a level.
func (c *Cluster) setLevel(n *Node, in bool) {
	word, bit := &c.levels[n.used*c.words+n.ID/64], uint64(1)<<(n.ID%64)
	if !in {
		*word &^= bit
		c.levelNodes[n.used]--
		return
	}
	*word |= bit
	c.levelNodes[n.used]++
	if n.used < c.lowest {
		c.lowest = n.used
	}
}

// Meter exposes the usage meter.
func (c *Cluster) Meter() *Meter { return &c.meter }

// Capacity returns the total number of slots on live nodes.
func (c *Cluster) Capacity() int { return c.capacity }

// InUse returns the number of occupied slots.
func (c *Cluster) InUse() int { return c.inUse }

// Allocate grants a container immediately or returns ErrNoCapacity. Nodes
// are filled least-loaded first, mirroring a spreading scheduler.
func (c *Cluster) Allocate() (*Container, error) {
	if c.free == 0 {
		return nil, ErrNoCapacity
	}
	for c.levelNodes[c.lowest] == 0 {
		c.lowest++
	}
	level := c.levels[c.lowest*c.words : (c.lowest+1)*c.words]
	w := 0
	for level[w] == 0 {
		w++
	}
	n := c.nodes[w*64+bits.TrailingZeros64(level[w])]

	c.setLevel(n, false)
	n.used++
	if n.used < n.slots {
		c.setLevel(n, true)
	}
	c.free--
	c.inUse++

	slow := 1.0
	if c.cfg.Contention != nil {
		slow = c.cfg.Contention.Slowdown(c.eng.Now(), n.ID, c.rng.next())
	}
	if len(c.pool) == 0 {
		slab := make([]Container, containerChunk)
		for i := range slab {
			c.pool = append(c.pool, &slab[i])
		}
	}
	ctr := c.pool[len(c.pool)-1]
	c.pool = c.pool[:len(c.pool)-1]
	*ctr = Container{Node: n, AcquiredAt: c.eng.Now(), Slowdown: slow, prev: n.tail}
	if n.tail == nil {
		n.head = ctr
	} else {
		n.tail.next = ctr
	}
	n.tail = ctr
	n.live++
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
// waiter that no longer wants its grant does, and it leaves the contention
// draws and the meter's release count where they would have been.
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

	n := ctr.Node
	if ctr.prev == nil {
		n.head = ctr.next
	} else {
		ctr.prev.next = ctr.next
	}
	if ctr.next == nil {
		n.tail = ctr.prev
	} else {
		ctr.next.prev = ctr.prev
	}
	ctr.prev, ctr.next, ctr.revoke = nil, nil, nil
	n.live--
	c.pool = append(c.pool, ctr)

	if !n.failed {
		if n.used < n.slots {
			c.setLevel(n, false)
		}
		n.used--
		c.setLevel(n, true)
		c.free++
		c.inUse--
	}
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

// SetRevokeHandler registers fn to run if the container's node fails while
// the container is held. The handler must Release the container (usage up to
// the failure instant is charged normally).
func (ctr *Container) SetRevokeHandler(fn func()) { ctr.revoke = revokeFunc(fn) }

// SetRevoker is SetRevokeHandler for a Revoker.
func (ctr *Container) SetRevoker(r Revoker) { ctr.revoke = r }

// FailNode marks a node failed and revokes its outstanding containers, in
// the order they were granted, via their revoke handlers. Returns the number
// of revoked containers.
func (c *Cluster) FailNode(id int) (int, error) {
	if id < 0 || id >= len(c.nodes) {
		return 0, fmt.Errorf("cluster: no node %d", id)
	}
	n := c.nodes[id]
	if n.failed {
		return 0, nil
	}
	if n.used < n.slots {
		c.setLevel(n, false)
	}
	n.failed = true
	c.free -= n.slots - n.used
	c.capacity -= n.slots
	// Collect first: revoke handlers unlink containers via Release, and a
	// released container may be granted again, elsewhere, before the loop
	// reaches it.
	victims := make([]*Container, 0, n.live)
	for ctr := n.head; ctr != nil; ctr = ctr.next {
		victims = append(victims, ctr)
	}
	for _, ctr := range victims {
		if ctr.Node == n && !ctr.released && ctr.revoke != nil {
			ctr.revoke.Revoked()
		}
	}
	return len(victims), nil
}
