package server

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	"chronos"
	"chronos/internal/obs"
)

// Hot-key replication and warm handoff. Writes stay single-owner — the ring
// owner of a plan key is the one replica that solves and caches it — but
// with replication factor R > 1 the owner asynchronously pushes each entry
// it solves to the key's next R−1 ring successors over POST /v1/cache/push.
// Reads may then use any replica: forwardToOwner walks the same successor
// list when the owner's circuit is open, so a previously-hot key survives
// its owner dying without a cold recompute. The same push endpoint carries
// the warm handoff: when a membership change remaps arcs, the old view's
// holders stream the remapped entries to their new owners instead of
// letting that slice of the keyspace go cold.

// replicaPushBatch caps the entries drained into one replication push, and
// pushChunk caps the entries of one POST /v1/cache/push request (the body
// must stay well under the receiver's MaxBodyBytes).
const (
	replicaPushBatch = 256
	pushChunk        = 256
)

// replicator is the background fan-out goroutine's inbox. Pushes are
// best-effort: a full channel drops the entry (the replica would be warmed
// by the next solve or the handoff path), so the solve path never blocks on
// a slow peer.
type replicator struct {
	ch chan savedPlan
}

// replicateHot enqueues one freshly solved entry for push to its replica
// set. Called by the singleflight leader right after the cache fill; the
// owner check keeps a drifted non-owner (local fallback solves) from
// spraying copies.
func (s *Server) replicateHot(key string, plan chronos.Plan) {
	if s.replic == nil {
		return
	}
	rs := s.ringSt.Load()
	if rs == nil || rs.replication <= 1 {
		return
	}
	if owner, ok := rs.ring.Owner(key); !ok || owner != rs.self {
		return
	}
	select {
	case s.replic.ch <- savedPlan{Key: key, Plan: plan}:
	default:
	}
}

// runReplicator drains the replication inbox in batches, grouping entries by
// target replica so a burst of solves costs one push per peer, not one per
// entry. Started by New when cfg.Replication > 1; stopped by Close.
func (s *Server) runReplicator() {
	defer close(s.replicDone)
	for {
		select {
		case <-s.replicStop:
			return
		case sp := <-s.replic.ch:
			batch := append(make([]savedPlan, 0, replicaPushBatch), sp)
		drain:
			for len(batch) < replicaPushBatch {
				select {
				case next := <-s.replic.ch:
					batch = append(batch, next)
				default:
					break drain
				}
			}
			s.pushReplicas(batch)
		}
	}
}

// plansByReplica groups entries under every replica assign names for their
// key, at most maxCacheWarmEntries per replica. It is the one "which cached
// plans does the ring give to whom" walk behind the replication push, the
// membership-change handoff and the /v1/cache/owned warm answer.
func plansByReplica(entries []savedPlan, assign func(key string) []string) map[string][]savedPlan {
	byReplica := make(map[string][]savedPlan)
	for _, e := range entries {
		for _, n := range assign(e.Key) {
			if len(byReplica[n]) < maxCacheWarmEntries {
				byReplica[n] = append(byReplica[n], e)
			}
		}
	}
	return byReplica
}

// pushReplicas fans one batch out to each entry's successor replicas.
func (s *Server) pushReplicas(batch []savedPlan) {
	rs := s.ringSt.Load()
	if rs == nil || rs.replication <= 1 {
		return
	}
	s.pushPlans(rs, plansByReplica(batch, func(key string) []string {
		return rs.ring.Successors(key, rs.replication)
	}))
}

// pushPlans POSTs each peer's plans to its /v1/cache/push in bounded chunks,
// returning how many entries the peers acknowledged loading. Failures are
// logged and skipped: replication and handoff are warmth optimizations, a
// missed copy just means a cold solve later.
func (s *Server) pushPlans(rs *ringState, byPeer map[string][]savedPlan) int {
	loaded := 0
	for target, plans := range byPeer {
		peer := rs.peers[target]
		if peer == nil {
			continue // self, or a member that left the view
		}
		for len(plans) > 0 {
			chunk := plans[:min(len(plans), pushChunk)]
			plans = plans[len(chunk):]
			raw, err := json.Marshal(cacheOwnedResponse{Plans: chunk})
			if err != nil {
				s.logOp().Error("cache push encode failed", "error", err.Error())
				break
			}
			ans, outcome := peer.call(context.Background(), http.MethodPost, "/v1/cache/push", raw)
			if outcome != peerAnswered || ans.status != http.StatusOK {
				s.logOp().Warn("cache push failed", "peer", target, "status", ans.status)
				break
			}
			loaded += len(chunk)
		}
	}
	return loaded
}

// handleCachePush ingests replicated or handed-off entries into the local
// cache. Internal fleet surface like /v1/escrow/lease: plans are a pure
// function of their key, so loading a stale or duplicate copy is harmless.
func (s *Server) handleCachePush(w http.ResponseWriter, r *http.Request) {
	var req cacheOwnedResponse
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Plans) > maxCacheWarmEntries {
		req.Plans = req.Plans[:maxCacheWarmEntries]
	}
	s.writeJSON(w, r, http.StatusOK, map[string]int{"loaded": s.cache.load(req.Plans)})
}

// handoffRemapped streams the hot entries whose ownership moved in a
// membership change (old → cur) to their new owners, capped per target at
// maxCacheWarmEntries like the pull-side warm path. Runs in the background
// from applyRing: a reshard should cost the fleet a bounded push, not a
// cold keyspace slice.
func (s *Server) handoffRemapped(old, cur *ringState) {
	start := time.Now()
	byPeer := plansByReplica(s.cache.dump(), func(key string) []string {
		owner, _ := cur.ring.Owner(key)
		if oldOwner, _ := old.ring.Owner(key); owner == cur.self || owner == oldOwner {
			// Ours, or ownership did not move: the owner warmed this key on
			// its own write path.
			return nil
		}
		return []string{owner}
	})
	if total := s.pushPlans(cur, byPeer); total > 0 {
		s.metrics.ringHandoffEntries.Add(uint64(total))
		s.logOp().Info("cache handoff", "entries", total, "targets", len(byPeer),
			"members", len(cur.ring.Nodes()))
	}
	s.metrics.stageSeconds[obs.StageHandoff].Observe(time.Since(start).Seconds())
}
