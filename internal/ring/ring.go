// Package ring places the chronosd plan-key space on a fleet of replicas by
// rendezvous (highest-random-weight) hashing: a key belongs to the member
// with the highest mix of the key's hash and the member's own hash. Placement
// is fully deterministic (no per-process seed), so every replica given the
// same membership computes the same owner for every key — the property that
// lets N replicas act as one large distributed plan cache instead of N
// overlapping small ones. Each member's share is 1/N in expectation, and a
// join or a leave moves only the keys the changed member wins or owned.
package ring

import "slices"

// FNV-1a's parameters, inlined: hash/fnv's New64a hands back its state
// behind an interface, which makes every call allocate.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash is the key hash of the plan cache and the ring: FNV-1a's
// xor-multiply step over whole little-endian 8-byte words, then over the
// tail bytes, finished by MurmurHash3's fmix64 so that every output bit
// (the low ones pick a cache shard) depends on every input bit. A plan key
// is mostly fixed-width words, so this takes a tenth of the multiplies a
// byte-wise FNV-1a would. It is deterministic across processes and
// restarts, unlike hash/maphash.
func Hash[K string | []byte](key K) uint64 {
	h := uint64(fnvOffset64)
	for ; len(key) >= 8; key = key[8:] {
		_ = key[7]
		h ^= uint64(key[0]) | uint64(key[1])<<8 | uint64(key[2])<<16 | uint64(key[3])<<24 |
			uint64(key[4])<<32 | uint64(key[5])<<40 | uint64(key[6])<<48 | uint64(key[7])<<56
		h *= fnvPrime64
	}
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
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

// score is member m's weight for the key hashed to h: one mix of two words.
func score(h, m uint64) uint64 { return fmix64(h ^ m) }

// Ring is an immutable placement over a member set. Build a new Ring for
// every membership change; lookups on an existing Ring are safe for
// concurrent use.
type Ring struct {
	nodes  []string // sorted
	hashes []uint64 // hashes[i] is Hash(nodes[i])
}

// New builds a ring over nodes. Duplicate and empty member names are
// dropped. An empty member set yields an empty ring whose Owner always
// reports no owner. The trailing argument is ignored; it is kept so that
// callers written for the earlier virtual-node count still compile.
func New(nodes []string, _ ...int) *Ring {
	members := slices.Clone(nodes)
	slices.Sort(members)
	r := &Ring{nodes: slices.Compact(members)}
	if len(r.nodes) > 0 && r.nodes[0] == "" {
		r.nodes = r.nodes[1:] // "" sorts first
	}
	r.hashes = make([]uint64, len(r.nodes))
	for i, n := range r.nodes {
		r.hashes[i] = Hash(n)
	}
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
func (r *Ring) Owner(key string) (owner string, ok bool) { return r.owner(Hash(key)) }

// TenantKeyPrefix namespaces a tenant's pool on the ring: the pool of tenant
// t belongs to the owner of the key TenantKeyPrefix+t, which no plan key
// equals. Servers decide a tenant's admits there, and clients send them
// there.
const TenantKeyPrefix = "tenant:"

// TenantOwner returns the member that owns tenant's pool.
func (r *Ring) TenantOwner(tenant string) (owner string, ok bool) {
	return r.Owner(TenantKeyPrefix + tenant)
}

// OwnerBytes is Owner for a key still sitting in a pooled request buffer.
// It allocates nothing.
func (r *Ring) OwnerBytes(key []byte) (owner string, ok bool) { return r.owner(Hash(key)) }

// owner returns the member with the highest score for the key hashed to h.
// A tie goes to the member whose name sorts first.
func (r *Ring) owner(h uint64) (string, bool) {
	if len(r.nodes) == 0 {
		return "", false
	}
	best, bestScore := 0, score(h, r.hashes[0])
	for i := 1; i < len(r.hashes); i++ {
		if s := score(h, r.hashes[i]); s > bestScore {
			best, bestScore = i, s
		}
	}
	return r.nodes[best], true
}
