// Package ring implements the consistent-hash ring that shards the chronosd
// plan-key space across a fleet of replicas. Each member is placed at many
// virtual points on a 64-bit hash circle; a key belongs to the first virtual
// point at or clockwise of the key's hash. Placement is fully deterministic
// (FNV-1a, no per-process seed), so every replica given the same membership
// computes the same owner for every key — the property that lets N replicas
// act as one large distributed plan cache instead of N overlapping small
// ones. The astronomically rare case of two members' virtual points
// colliding on the same circle position is broken per key by rendezvous
// hashing (highest combined key+member hash wins), which keeps ownership
// deterministic without privileging whichever member sorted first.
package ring

import (
	"sort"
	"strconv"
)

// FNV-1a parameters, inlined: hash/fnv's New64a hands back its state behind
// an interface, which makes every Owner lookup allocate. The inlined loops
// produce bit-identical hashes, so placement is unchanged.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// DefaultVirtualNodes is the per-member virtual-node count used when New is
// given a non-positive count. 512 keeps every member's keyspace share within
// roughly ±10% of uniform for fleets up to a few dozen replicas (share
// spread shrinks as 1/sqrt(virtual nodes)); construction stays well under a
// millisecond and lookups are a binary search over members×512 points.
const DefaultVirtualNodes = 512

// Ring is an immutable consistent-hash ring over a member set. Build a new
// Ring for every membership change; lookups on an existing Ring are safe for
// concurrent use.
type Ring struct {
	nodes  []string
	points []point // sorted by hash
}

// point is one virtual node: a position on the hash circle and the member it
// maps to.
type point struct {
	hash uint64
	node string
}

// hash64 is the ring's placement hash: FNV-1a run through a 64-bit
// finalizer. FNV is in the standard library and — critically —
// deterministic across processes and restarts (unlike hash/maphash), but
// its raw output diffuses the high bits poorly for short, nearly identical
// inputs like "host:8080#17", which skews arc widths badly; the
// MurmurHash3-style fmix64 finalizer restores full avalanche.
func hash64(key string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return fmix64(h)
}

func hash64Bytes(key []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return fmix64(h)
}

// fmix64 is the MurmurHash3 64-bit finalizer: a bijective mixer with full
// avalanche (every input bit flips each output bit with ~1/2 probability).
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// rendezvousScore combines a key with a member name for tie-breaking. The
// NUL separator keeps distinct (key, node) pairs from concatenating to the
// same bytes.
func rendezvousScore(key, node string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	h *= fnvPrime64 // NUL separator: h ^= 0 is a no-op
	for i := 0; i < len(node); i++ {
		h ^= uint64(node[i])
		h *= fnvPrime64
	}
	return fmix64(h)
}

// New builds a ring over nodes with the given virtual-node count per member
// (non-positive means DefaultVirtualNodes). Duplicate and empty member names
// are dropped. An empty member set yields an empty ring whose Owner always
// reports no owner.
func New(nodes []string, virtualNodes int) *Ring {
	if virtualNodes <= 0 {
		virtualNodes = DefaultVirtualNodes
	}
	seen := make(map[string]bool, len(nodes))
	members := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		members = append(members, n)
	}
	sort.Strings(members)

	r := &Ring{
		nodes:  members,
		points: make([]point, 0, len(members)*virtualNodes),
	}
	// Virtual point i of member m is hash(m + "#" + i). The textual index
	// (not a binary encoding) keeps the placement trivially reproducible by
	// operators debugging ownership from a shell.
	var buf []byte
	for _, n := range members {
		for i := 0; i < virtualNodes; i++ {
			buf = buf[:0]
			buf = append(buf, n...)
			buf = append(buf, '#')
			buf = strconv.AppendInt(buf, int64(i), 10)
			r.points = append(r.points, point{hash: hash64Bytes(buf), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// Nodes returns the sorted member set (a copy).
func (r *Ring) Nodes() []string {
	out := make([]string, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// Owner returns the member that owns key. ok is false only on an empty
// ring.
func (r *Ring) Owner(key string) (owner string, ok bool) {
	if len(r.points) == 0 {
		return "", false
	}
	idx, end := r.span(hash64(key))
	if end == idx {
		return r.points[idx].node, true
	}
	return r.breakTie(key, idx, end), true
}

// OwnerBytes is Owner for a key still sitting in a pooled request buffer.
// It allocates nothing on the common path; the string form of the key is
// materialized only inside the astronomically rare collision tie-break.
func (r *Ring) OwnerBytes(key []byte) (owner string, ok bool) {
	if len(r.points) == 0 {
		return "", false
	}
	idx, end := r.span(hash64Bytes(key))
	if end == idx {
		return r.points[idx].node, true
	}
	return r.breakTie(string(key), idx, end), true
}

// span locates the owning virtual point for hash h and extends across any
// colliding points at the same circle position, returning the [idx, end]
// index range (end == idx in the no-collision common case).
func (r *Ring) span(h uint64) (idx, end int) {
	idx = sort.Search(len(r.points), func(i int) bool {
		return r.points[i].hash >= h
	})
	if idx == len(r.points) {
		idx = 0 // wrap: keys past the last point belong to the first
	}
	end = idx
	for end+1 < len(r.points) && r.points[end+1].hash == r.points[end].hash {
		end++
	}
	return idx, end
}

// breakTie resolves a collision span — distinct members' virtual points at
// the same circle position — by rendezvous hashing, so ownership of the
// contested arc is split deterministically per key instead of granted to
// the lexicographically first member.
func (r *Ring) breakTie(key string, idx, end int) string {
	best, bestScore := r.points[idx].node, rendezvousScore(key, r.points[idx].node)
	for i := idx + 1; i <= end; i++ {
		n := r.points[i].node
		if n == best {
			continue
		}
		if sc := rendezvousScore(key, n); sc > bestScore || (sc == bestScore && n < best) {
			best, bestScore = n, sc
		}
	}
	return best
}

// OwnedFraction returns the fraction of the 64-bit keyspace owned by node:
// the summed width of the arcs whose clockwise endpoint is one of node's
// virtual points. Replicas export it as the chronosd_ring_owned_fraction
// gauge, so a fleet dashboard shows immediately when placement has drifted
// from uniform (or when a replica's membership view disagrees with its
// peers': the fleet-wide sum stops adding up to 1).
func (r *Ring) OwnedFraction(node string) float64 {
	if len(r.points) == 0 {
		return 0
	}
	if len(r.points) == 1 {
		// One virtual point owns the whole circle; the arc-width loop below
		// would compute a zero-width self-arc.
		if r.points[0].node == node {
			return 1
		}
		return 0
	}
	const keyspace = float64(1<<63) * 2 // 2^64
	var owned float64
	prev := r.points[len(r.points)-1].hash
	for _, p := range r.points {
		// Width of (prev, p.hash] with wraparound; uint64 subtraction is
		// exactly arithmetic mod 2^64.
		width := p.hash - prev
		if p.node == node {
			owned += float64(width)
		}
		prev = p.hash
	}
	return owned / keyspace
}
