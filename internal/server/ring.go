package server

import (
	"net/http"
	"time"

	"chronos/internal/obs"
	"chronos/internal/ring"
)

// Sharding headers. ForwardedFromHeader marks a request as already forwarded
// once (its value is the sender's self URL); a replica that receives it never
// forwards it again — it solves a plan locally, and decides an admit only if
// it owns the tenant's pool, refusing it otherwise — so ownership
// disagreements during a rolling membership change never make a forwarding
// loop.
// ServedByHeader names the replica that actually computed (or cached) the
// response, which is how the ring demo and the fleet tests observe
// cross-replica serving.
const (
	ForwardedFromHeader = "X-Chronosd-Forwarded-From"
	ServedByHeader      = "X-Chronosd-Served-By"
)

// ringState is one immutable view of the fleet: the rendezvous-hash ring
// over the member URLs plus per-peer forwarding state. Membership changes
// (SetRing, typically on SIGHUP) swap in a whole new ringState; in-flight
// requests keep the view they started with.
type ringState struct {
	ring  *ring.Ring
	self  string
	peers map[string]*peerState // by member URL, excluding self
	// selfHdr is the precomputed ServedByHeader value assigned into hot
	// responses' header maps; immutable for the ringState's lifetime, so
	// sharing one slice across requests is safe.
	selfHdr []string
}

// SetRing swaps the operator-configured fleet membership, rebuilding the
// rendezvous-hash ring. A zero Membership disables sharding (every key is
// computed locally). chronosd calls this on SIGHUP alongside SetTenants, so
// one signal reloads both tenant budgets and ring membership.
//
// The ring is the operator's membership and nothing else: a dead member keeps
// its plan keys and its tenant pools. Its peer's breaker answers for it —
// plan keys fall back to a local solve, its tenants' admits are refused at
// once — until a half-open probe finds it back. A reload that moves a tenant
// to another owner is a fresh pool there — budget the old owner already
// debited is not carried over.
func (s *Server) SetRing(m ring.Membership) error {
	if !m.Enabled() {
		s.applyRing("", nil)
		return nil
	}
	if err := m.Validate(); err != nil {
		return err
	}
	s.applyRing(ring.NormalizeURL(m.Self), m.Members())
	return nil
}

// applyRing swaps in a new ring over members (nil disables sharding).
// Circuit-breaker state and idle connections carry over for peers present in
// both the old and new membership; a dropped peer's state is discarded and
// its connections closed, so a member added back starts with a closed
// circuit and a fresh dial.
func (s *Server) applyRing(self string, members []string) {
	s.ringMu.Lock()
	defer s.ringMu.Unlock()
	old := s.ringSt.Load()
	// A new identity keeps no peer state.
	sameSelf := old != nil && old.self == self
	var cur *ringState
	if len(members) > 0 {
		r := ring.New(members)
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
			ring:    r,
			self:    self,
			peers:   peers,
			selfHdr: []string{self},
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

// forwardToOwner is the sharded serving path of one plan-keyed request. It
// returns true when the response has been fully written: the owner of the
// request's key answered, and its answer was relayed. false means the caller
// computes locally — this replica owns the key, sharding is off, the request
// already took its one forwarding hop, or the owner is unreachable and the
// plan is solved here instead of failing the request (a plan spends no
// budget, so any replica's answer is as good as the owner's).
//
// body is the request as received: the owner decodes the same bytes into
// the same request, so it computes the cache key the routing decision used.
// c is the request's cell, routed by its key; a fallback after a forward
// attempt clears c.keyed, so the local cache span does not cover the attempt.
func (s *Server) forwardToOwner(w http.ResponseWriter, r *http.Request, path string, c *cell, body []byte) bool {
	rs := s.ringSt.Load()
	if rs == nil {
		return false
	}
	// A replica that computes locally stamps itself; relay overwrites this
	// with the owner's stamp when the forward succeeds. The shared immutable
	// slice goes straight into the header map (canonical key) so the hot
	// path's stamp does not allocate.
	w.Header()[ServedByHeader] = rs.selfHdr
	if r.Header.Get(ForwardedFromHeader) != "" {
		// Single-hop guard: this request was already forwarded once.
		s.metrics.ringReceivedForwards.Inc()
		return false
	}
	owner, ok := rs.ring.OwnerBytes(c.key)
	if !ok || owner == rs.self {
		return false
	}
	c.keyed = time.Time{}
	if s.relay(w, r, rs, owner, path, body) {
		return true
	}
	s.metrics.ringLocalFallbacks.Inc()
	return false
}

// relay sends body, unchanged, to owner over the peer transport and writes
// the owner's answer, whatever its status, as this request's. It returns
// false when there is no answer to write: owner is not a peer of rs (a
// membership reload raced the lookup), its circuit is open, or the call
// failed (peerState.call settles the breaker). A client gone mid-call counts
// as relayed: nobody would read an answer. The attempt — request out through
// body read — is one StageForward span.
func (s *Server) relay(w http.ResponseWriter, r *http.Request, rs *ringState, owner, path string, body []byte) bool {
	peer := rs.peers[owner]
	if peer == nil {
		return false
	}
	start := time.Now()
	ans, outcome := peer.call(r.Context(), traceIDOf(w), http.MethodPost, path, body)
	if outcome != peerSkipped {
		traceOf(w).Observe(obs.StageForward, time.Since(start))
	}
	switch outcome {
	case peerAborted:
		return true
	case peerAnswered:
	default:
		return false
	}
	s.metrics.ringForwards.inc(peer.base)
	if ans.contentType != "" {
		w.Header().Set("Content-Type", ans.contentType)
	}
	if ans.servedBy != "" {
		w.Header().Set(ServedByHeader, ans.servedBy)
	} else {
		// An answer the owner gave before it stamped itself (an unknown
		// tenant's 404) is still the owner's.
		w.Header().Set(ServedByHeader, owner)
	}
	w.WriteHeader(ans.status)
	_, _ = w.Write(ans.body)
	return true
}
