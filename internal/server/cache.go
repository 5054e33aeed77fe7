package server

import (
	"bytes"
	"sync"

	"chronos"
	"chronos/internal/hotjson"
	"chronos/internal/metrics"
	"chronos/internal/ring"
)

// planCache is a sharded LRU over optimized plans. Each shard has its own
// mutex, hash index and recency list; the key's ring.Hash picks the shard, so
// concurrent planners contend only 1/shards of the time.
type planCache struct {
	shards []cacheShard
	mask   uint64

	hits   metrics.Counter
	misses metrics.Counter
}

// cacheShard keeps its entries in one slice linked in recency order by
// int32 slot indices, so neither a hit nor a miss allocates: a miss reuses
// the evicted slot and its key and rendered-plan buffers, and the GC scans
// one slice per shard instead of a key string, an entry and a list element
// per plan.
//
// index maps a key's 64-bit hash to its slot. Two keys with the same hash
// share one slot and evict each other; every lookup compares the whole key,
// so a collision can cost a solve but never returns another key's plan.
type cacheShard struct {
	mu    sync.Mutex
	index map[uint64]int32
	// slots has the shard's capacity from the start; its length grows up to
	// it, and only a flush shrinks it.
	slots []cacheEntry
	// head and tail are the most and least recently used slots, -1 when
	// the shard is empty.
	head, tail int32
}

type cacheEntry struct {
	hash uint64
	key  []byte
	plan chronos.Plan
	// rendered is plan's wire form (hotjson.AppendPlan), filled the first
	// time /v1/plan renders the plan and emptied whenever the key or the
	// plan changes, so a /v1/plan hit copies it instead of formatting four
	// floats. Its buffer is reused like key's, at renderedCap bytes a slot.
	rendered []byte
	// frontier is the cell's precomputed budget frontier, attached lazily
	// by the first admit whose pool the optima overrun; the walk of every
	// later squeezed pool reads this cell's options from it.
	// Guarded by the shard mutex like the rest of the entry.
	frontier   *chronos.BudgetFrontier
	prev, next int32
}

// newPlanCache builds a cache with the given shard count (rounded up to a
// power of two) and total capacity; every shard holds at least one plan.
func newPlanCache(shards, capacity int) *planCache {
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := (capacity + n - 1) / n
	if perShard < 1 {
		perShard = 1
	}
	c := &planCache{shards: make([]cacheShard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i] = cacheShard{
			index: make(map[uint64]int32, perShard),
			slots: make([]cacheEntry, 0, perShard),
			head:  -1,
			tail:  -1,
		}
	}
	return c
}

// lock returns key's shard, locked, and the key's hash.
func (c *planCache) lock(key []byte) (*cacheShard, uint64) {
	h := ring.Hash(key)
	s := &c.shards[h&c.mask]
	s.mu.Lock()
	return s, h
}

// find returns the slot holding key, or -1.
func (s *cacheShard) find(h uint64, key []byte) int32 {
	if i, ok := s.index[h]; ok && bytes.Equal(s.slots[i].key, key) {
		return i
	}
	return -1
}

func (s *cacheShard) unlink(i int32) {
	e := &s.slots[i]
	if e.prev >= 0 {
		s.slots[e.prev].next = e.next
	} else {
		s.head = e.next
	}
	if e.next >= 0 {
		s.slots[e.next].prev = e.prev
	} else {
		s.tail = e.prev
	}
}

func (s *cacheShard) pushFront(i int32) {
	e := &s.slots[i]
	e.prev, e.next = -1, s.head
	if s.head >= 0 {
		s.slots[s.head].prev = i
	} else {
		s.tail = i
	}
	s.head = i
}

// renderedCap is the longest plan object hotjson.AppendPlan can write (the
// longest strategy name, a 20-digit r and four 25-byte floats), so a slot's
// rendered buffer, allocated once at this size, never grows.
const renderedCap = 208

// setRendered keeps b as the entry's rendered plan, or empties it when b is
// empty.
func (e *cacheEntry) setRendered(b []byte) {
	if len(b) > 0 && cap(e.rendered) == 0 {
		e.rendered = make([]byte, 0, renderedCap)
	}
	e.rendered = append(e.rendered[:0], b...)
}

// get returns the cached plan for key and marks it most recently used. Keys
// arrive as the []byte still in the caller's pooled request buffer. With dst
// non-nil (/v1/plan) a hit also appends the plan's wire form to dst, copied
// from the slot under the shard lock, after rendering it into the slot if an
// earlier put left none (a plan the admit or batch paths cached); a plan
// hotjson cannot render leaves dst as given. With dst nil, out is nil.
func (c *planCache) get(key, dst []byte) (plan chronos.Plan, out []byte, hit bool) {
	s, h := c.lock(key)
	defer s.mu.Unlock()
	i := s.find(h, key)
	if i < 0 {
		c.misses.Inc()
		return chronos.Plan{}, dst, false
	}
	s.unlink(i)
	s.pushFront(i)
	c.hits.Inc()
	e := &s.slots[i]
	if dst == nil {
		return e.plan, nil, true
	}
	if len(e.rendered) == 0 {
		if b, err := hotjson.AppendPlan(dst, &e.plan); err == nil {
			e.setRendered(b[len(dst):])
		}
	}
	return e.plan, append(dst, e.rendered...), true
}

// frontier returns the entry's precomputed budget frontier, nil when the
// key is cold or no squeezed pool has built one yet. Does not touch recency or hit
// counters: every caller just did a get for the same key.
func (c *planCache) frontier(key []byte) *chronos.BudgetFrontier {
	s, h := c.lock(key)
	defer s.mu.Unlock()
	if i := s.find(h, key); i >= 0 {
		return s.slots[i].frontier
	}
	return nil
}

// setFrontier attaches a budget frontier to the key's entry, if the key is
// still cached (an evicted entry simply drops it). Concurrent squeezed
// admits may race to build the same table; both are correct, last one
// wins.
func (c *planCache) setFrontier(key []byte, f *chronos.BudgetFrontier) {
	s, h := c.lock(key)
	defer s.mu.Unlock()
	if i := s.find(h, key); i >= 0 {
		s.slots[i].frontier = f
	}
}

// put inserts or refreshes key, evicting the shard's least recently used
// entry when full. rendered is plan's wire form when the caller has it, else
// empty. The key and rendered are copied: callers may reuse their buffers.
func (c *planCache) put(key []byte, plan chronos.Plan, rendered []byte) {
	s, h := c.lock(key)
	defer s.mu.Unlock()
	i, ok := s.index[h]
	switch {
	case ok:
		s.unlink(i)
	case len(s.slots) < cap(s.slots):
		i = int32(len(s.slots))
		s.slots = s.slots[:i+1] // a slot a flush truncated keeps its key buffer
	default:
		i = s.tail
		s.unlink(i)
		delete(s.index, s.slots[i].hash)
	}
	e := &s.slots[i]
	if !ok || !bytes.Equal(e.key, key) {
		e.hash, e.key, e.frontier = h, append(e.key[:0], key...), nil
		s.index[h] = i
	}
	e.plan = plan
	e.setRendered(rendered)
	s.pushFront(i)
}

// flush empties every shard. Called when the tenant config is hot-reloaded,
// so no plan computed under the old defaults outlives the config change.
// The slots keep their key and rendered buffers for the plans that refill
// the cache; put empties or overwrites a slot's rendered bytes as it takes
// the slot.
func (c *planCache) flush() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		clear(s.index)
		for j := range s.slots {
			s.slots[j].frontier = nil
		}
		s.slots = s.slots[:0]
		s.head, s.tail = -1, -1
		s.mu.Unlock()
	}
}

// len sums the shard sizes.
func (c *planCache) len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += len(s.slots)
		s.mu.Unlock()
	}
	return total
}

// stats returns cumulative hit/miss counts.
func (c *planCache) stats() (hits, misses uint64) {
	return c.hits.Value(), c.misses.Value()
}
