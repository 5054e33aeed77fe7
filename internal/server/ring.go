package server

import (
	"encoding/json"
	"net/http"
	"slices"
	"time"

	"chronos/internal/obs"
	"chronos/internal/ring"
)

// Sharding headers. ForwardedFromHeader marks a request as already forwarded
// once (its value is the sender's self URL); a replica that receives it
// always computes locally, so ownership disagreements during a rolling
// membership change degrade to one extra hop, never a forwarding loop.
// ServedByHeader names the replica that actually computed (or cached) the
// response, which is how the ring demo and the fleet tests observe
// cross-replica serving.
const (
	ForwardedFromHeader = "X-Chronosd-Forwarded-From"
	ServedByHeader      = "X-Chronosd-Served-By"
)

// ringState is one immutable view of the fleet: the consistent-hash ring
// over the member URLs plus per-peer forwarding state. Membership changes
// (SetRing, typically on SIGHUP) swap in a whole new ringState; in-flight
// requests keep the view they started with.
type ringState struct {
	ring  *ring.Ring
	self  string
	peers map[string]*peerState // by member URL, excluding self
	// replication is the hot-key copy count R: the owner plus the next R−1
	// ring successors hold each cached plan, and a forward that cannot reach
	// the owner reads from a replica before falling back to cold compute.
	replication int
	// selfHdr is the precomputed ServedByHeader value assigned into hot
	// responses' header maps; immutable for the ringState's lifetime, so
	// sharing one slice across requests is safe.
	selfHdr []string
}

// SetRing swaps the operator-configured fleet membership, rebuilding the
// consistent-hash ring. A zero Membership disables sharding (every key is
// computed locally). chronosd calls this on SIGHUP alongside SetTenants, so
// one signal reloads both tenant budgets and ring membership.
//
// The configured membership is the operator's intent; the ring actually
// served from is the EFFECTIVE membership — configured minus the members
// the health monitor currently suspects dead (self is never suspect). A
// reload therefore composes with health state instead of resurrecting a
// replica the monitor just evicted.
func (s *Server) SetRing(m ring.Membership) error {
	if !m.Enabled() {
		s.health.mu.Lock()
		s.health.configured = ring.Membership{}
		s.health.suspects, s.health.fails, s.health.oks = nil, nil, nil
		s.health.mu.Unlock()
		s.applyRing("", nil)
		return nil
	}
	if err := m.Validate(); err != nil {
		return err
	}
	self := ring.NormalizeURL(m.Self)
	s.health.mu.Lock()
	s.health.configured = m
	s.health.pruneLocked(m.Members())
	members := s.health.effectiveLocked(self)
	s.health.mu.Unlock()
	s.applyRing(self, members)
	return nil
}

// applyRing swaps in a new effective ring over members (nil disables
// sharding). Circuit-breaker state and idle connections carry over for peers
// present in both the old and new view; an evicted peer's state is dropped
// and its connections closed, so a re-admitted member starts with a closed
// circuit and a fresh dial. When the member set actually changed, the
// remapped slice of the hot cache is streamed to its new owners in the
// background (warm handoff).
func (s *Server) applyRing(self string, members []string) {
	s.ringMu.Lock()
	defer s.ringMu.Unlock()
	old := s.ringSt.Load()
	// A new identity keeps no peer state and hands nothing off.
	sameSelf := old != nil && old.self == self
	var cur *ringState
	if len(members) > 0 {
		r := ring.New(members, ring.DefaultVirtualNodes)
		peers := make(map[string]*peerState, len(members))
		for _, n := range r.Nodes() {
			switch {
			case n == self:
			case sameSelf && old.peers[n] != nil:
				peers[n] = old.peers[n]
			default:
				peers[n] = newPeerState(s, n, self)
			}
		}
		cur = &ringState{
			ring:        r,
			self:        self,
			peers:       peers,
			replication: s.cfg.Replication,
			selfHdr:     []string{self},
		}
	}
	s.ringSt.Store(cur)
	if old != nil {
		for n, p := range old.peers {
			if cur == nil || cur.peers[n] != p {
				p.closeIdle()
			}
		}
	}
	if cur != nil && sameSelf && !slices.Equal(old.ring.Nodes(), cur.ring.Nodes()) {
		go s.handoffRemapped(old, cur)
	}
}

// RingMembers returns the current membership view (empty when sharding is
// disabled). Exposed for tests and embedders.
func (s *Server) RingMembers() (self string, members []string) {
	rs := s.ringSt.Load()
	if rs == nil {
		return "", nil
	}
	return rs.self, rs.ring.Nodes()
}

// forwardToOwner implements the sharded serving path for one plan-keyed
// request. It returns true when the response has been fully written (the
// request was proxied to the owning replica or a live replica of the key);
// false means the caller must compute locally — either because this replica
// owns the key (or holds a replica copy of it), sharding is off, the
// request already took its one forwarding hop, or no replica of the key is
// reachable and we fall back to local computation rather than failing the
// request.
//
// With replication factor R > 1 the key's targets are the owner followed by
// the next R−1 ring successors — the replicas the owner pushes hot entries
// to — tried in order, moving on when a peer's circuit is open or the call
// fails (peerState.call settles the breaker). A response served by a
// non-owner counts as a replica read: the warm copy answered while the owner
// was down, which is the entire point of the replication factor.
//
// payload is the decoded request, re-marshaled for the forward so that
// fields this replica resolved (e.g. tenant econ defaults) travel with it
// and the owner computes the exact cache key the routing decision used.
func (s *Server) forwardToOwner(w http.ResponseWriter, r *http.Request, path string, key []byte, payload any) bool {
	rs := s.ringSt.Load()
	if rs == nil {
		return false
	}
	// A replica that computes locally stamps itself; the proxy branch below
	// overwrites this with the owner's stamp when the forward succeeds. The
	// shared immutable slice goes straight into the header map (canonical
	// key) so the hot path's stamp does not allocate.
	w.Header()[ServedByHeader] = rs.selfHdr
	if r.Header.Get(ForwardedFromHeader) != "" {
		// Single-hop guard: this request was already forwarded once.
		s.metrics.ringReceivedForwards.Inc()
		return false
	}
	owner, ok := rs.ring.OwnerBytes(key)
	if !ok || owner == rs.self {
		return false
	}
	tr := obs.FromContext(r.Context())
	var body []byte // marshaled before the first actual forward attempt
	for i, target := range rs.targetsFor(key, owner) {
		if target == rs.self {
			// This replica holds (or should hold) a replica copy of the key:
			// serve it from the local cache instead of forwarding onward. A
			// warm local copy is a replica read; a cold one just means the
			// local fallback recomputes.
			if i > 0 && s.cache.peek(key) {
				s.metrics.ringReplicaReads.Inc()
			}
			return false
		}
		peer := rs.peers[target]
		if peer == nil {
			// Membership raced a reload between Owner and the peer lookup;
			// serving locally is always safe.
			return false
		}
		if body == nil {
			var err error
			if body, err = json.Marshal(payload); err != nil {
				return false
			}
		}
		// Each attempt — request out through body read — is one StageForward
		// span on this side.
		start := time.Now()
		ans, outcome := peer.call(r.Context(), http.MethodPost, path, body)
		if outcome == peerSkipped {
			continue
		}
		tr.Observe(obs.StageForward, time.Since(start))
		switch {
		case outcome == peerFailed:
			continue // try the next replica
		case outcome == peerAborted:
			// The client went away mid-forward; a local fallback would compute
			// a plan nobody reads. Drop the request.
			return true
		case ans.status == http.StatusNotFound:
			// Config drift during a rolling rollout: this replica resolved the
			// request (tenant lookup included) before forwarding, so a peer 404
			// means its view disagrees — serve locally instead of failing a
			// request we know how to answer; trying further replicas would be
			// wrong.
			s.metrics.ringLocalFallbacks.Inc()
			return false
		}
		s.metrics.ringForwards.inc(peer.base)
		if i > 0 {
			s.metrics.ringReplicaReads.Inc()
		}
		if ans.contentType != "" {
			w.Header().Set("Content-Type", ans.contentType)
		}
		if ans.servedBy != "" {
			w.Header().Set(ServedByHeader, ans.servedBy)
		}
		w.WriteHeader(ans.status)
		_, _ = w.Write(ans.body)
		return true
	}
	s.metrics.ringLocalFallbacks.Inc()
	return false
}

// targetsFor returns the replicas to try for key, owner first. With R == 1
// that is just the owner (no slice walk, no allocation beyond the literal);
// with R > 1 the ring's successor list already leads with the owner.
func (rs *ringState) targetsFor(key []byte, owner string) []string {
	if rs.replication <= 1 {
		return []string{owner}
	}
	return rs.ring.SuccessorsBytes(key, rs.replication)
}
