package server

import (
	"net/http"
	"time"

	"chronos/api"
)

// One accounting mode. A tenant's admits — /v1/admit and /v1/admit/batch —
// are decided only on its pool owner: the ring owner of the tenant's key
// (ring.TenantKeyPrefix + name), or this replica when sharding is off. The
// owner splits its pool's real level across the request's jobs (admitJobs)
// and debits it through the escrow ledger, WAL-logged when a Store is configured. No replica ever
// debits a pool it does not own: a non-owner relays the request's bytes,
// unchanged, to the owner over the peer transport, and when the owner cannot
// be asked — its circuit is open, the call failed, or the request already
// took its one hop — it refuses every job with budget_exhausted. So an
// admit's answer does not depend on the replica that received it, and a dead
// owner's tenants are refused until it is back, never handed a second pool.

// admitRoute says where one admit request is decided.
type admitRoute uint8

const (
	// admitHere: this replica owns the tenant's pool, or sharding is off.
	admitHere admitRoute = iota
	// admitRelayed: the owner's answer has been written (or the client left
	// while it was asked).
	admitRelayed
	// admitRefused: another replica owns the pool and could not be asked.
	admitRefused
)

// routeAdmit says where tenant's admit request is decided; when that is
// another replica, it relays the request's body there.
func (s *Server) routeAdmit(w http.ResponseWriter, r *http.Request, path, tenant string, body []byte) admitRoute {
	rs := s.ringSt.Load()
	if rs == nil {
		return admitHere
	}
	w.Header()[ServedByHeader] = rs.selfHdr
	hopped := r.Header.Get(ForwardedFromHeader) != ""
	if hopped {
		s.metrics.ringReceivedForwards.Inc()
	}
	owner, _ := rs.ring.TenantOwner(tenant)
	switch {
	case owner == rs.self:
		return admitHere
	case hopped:
		// The sender's view of the ring disagrees with this one (a reload in
		// progress). A second hop could loop, and this pool is not the
		// tenant's.
		return admitRefused
	case s.relay(w, r, rs, owner, path, body):
		return admitRelayed
	}
	return admitRefused
}

// refuseAll answers every job of a request this replica may not decide with
// budget_exhausted, the answer of a pool with nothing left to spend, and
// counts the rejections.
func (s *Server) refuseAll(tenantName string, results []api.AdmitBatchResult) {
	for i := range results {
		results[i] = api.AdmitBatchResult{Reason: api.ReasonBudgetExhausted}
		s.metrics.tenantReject(tenantName, api.ReasonBudgetExhausted)
	}
}

// compactLoop folds the WAL into a fresh snapshot every
// escrowSnapshotInterval and checks that the WAL still takes appends. It
// runs only with a Store.
func (s *Server) compactLoop() {
	defer close(s.compactDone)
	snapshot := time.NewTicker(escrowSnapshotInterval)
	defer snapshot.Stop()
	var walFailsSeen uint64
	for {
		select {
		case <-s.compactStop:
			return
		case <-snapshot.C:
			// A failed WAL append cannot be rolled back (the ledger mutated
			// before it logged), so silent loss is the one unacceptable
			// outcome: latch-check here and shout.
			if fails, lastErr := s.ledger.WALFailures(); fails > walFailsSeen {
				walFailsSeen = fails
				s.logOp().Error("escrow WAL appends failing; a restart would restore stale budget levels",
					"failures", fails, "error", lastErr.Error())
			}
			if err := s.ledger.Compact(); err != nil {
				s.logOp().Error("escrow snapshot failed", "error", err.Error())
			}
		}
	}
}
