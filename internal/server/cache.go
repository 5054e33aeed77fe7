package server

import (
	"container/list"
	"sync"

	"chronos"
	"chronos/internal/metrics"
)

// FNV-1a, inlined: hash/fnv's New64a allocates its state on every call,
// which would be the plan cache's only allocation on a hit.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a is generic over the key's two forms: lookups probe with the []byte
// still in the pooled request buffer, inserts arrive with the string the
// entry will keep.
func fnv1a[K string | []byte](key K) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return h
}

// planCache is a sharded LRU over optimized plans. Each shard has its own
// mutex, map, and recency list; the FNV-1a hash of the key picks the shard,
// so concurrent planners contend only 1/shards of the time.
type planCache struct {
	shards []cacheShard
	mask   uint64

	hits   metrics.Counter
	misses metrics.Counter
}

type cacheShard struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element
	order    *list.List // front = most recently used
}

type cacheEntry struct {
	key  string
	plan chronos.Plan
	// frontier is the cell's precomputed capped-solve table, attached
	// lazily by the first budget-squeezed admit against this entry; later
	// squeezes in the warm cell skip the feasibility bisection entirely.
	// Guarded by the shard mutex like the rest of the entry.
	frontier *chronos.BudgetFrontier
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
			capacity: perShard,
			entries:  make(map[string]*list.Element, perShard),
			order:    list.New(),
		}
	}
	return c
}

// get returns the cached plan for key and marks it most recently used. Keys
// arrive as the []byte still in the caller's pooled request buffer: the
// string(key) map probe does not allocate, so a cache hit costs no heap.
func (c *planCache) get(key []byte) (chronos.Plan, bool) {
	s := &c.shards[fnv1a(key)&c.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[string(key)]
	if !ok {
		c.misses.Inc()
		return chronos.Plan{}, false
	}
	s.order.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*cacheEntry).plan, true
}

// frontier returns the entry's precomputed capped-solve table, nil when the
// key is cold or no squeeze has built one yet. Does not touch recency or hit
// counters: every caller just did a get for the same key.
func (c *planCache) frontier(key []byte) *chronos.BudgetFrontier {
	s := &c.shards[fnv1a(key)&c.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[string(key)]; ok {
		return el.Value.(*cacheEntry).frontier
	}
	return nil
}

// setFrontier attaches a capped-solve table to the key's entry, if the key
// is still cached (an evicted entry simply drops the table). Concurrent
// squeezes may race to build the same table; both are correct, last one
// wins.
func (c *planCache) setFrontier(key []byte, f *chronos.BudgetFrontier) {
	s := &c.shards[fnv1a(key)&c.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[string(key)]; ok {
		el.Value.(*cacheEntry).frontier = f
	}
}

// put inserts or refreshes key, evicting the shard's least recently used
// entry when full.
func (c *planCache) put(key string, plan chronos.Plan) {
	s := &c.shards[fnv1a(key)&c.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		el.Value.(*cacheEntry).plan = plan
		s.order.MoveToFront(el)
		return
	}
	if s.order.Len() >= s.capacity {
		oldest := s.order.Back()
		if oldest != nil {
			s.order.Remove(oldest)
			delete(s.entries, oldest.Value.(*cacheEntry).key)
		}
	}
	s.entries[key] = s.order.PushFront(&cacheEntry{key: key, plan: plan})
}

// flush empties every shard. Called when the tenant config is hot-reloaded,
// so no plan computed under the old defaults outlives the config change.
func (c *planCache) flush() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.entries = make(map[string]*list.Element, s.capacity)
		s.order.Init()
		s.mu.Unlock()
	}
}

// len sums the shard sizes.
func (c *planCache) len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += s.order.Len()
		s.mu.Unlock()
	}
	return total
}

// stats returns cumulative hit/miss counts.
func (c *planCache) stats() (hits, misses uint64) {
	return c.hits.Value(), c.misses.Value()
}
