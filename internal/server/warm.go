package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"os"
	"path/filepath"

	"chronos/internal/tenant"
)

// Plan-cache warmth across restarts. The cache is pure derived state, so it
// needs none of the ledger's WAL ceremony — two best-effort paths rebuild it
// after a restart instead:
//
//   - On Close the hot entries are dumped to <data-dir>/plancache.json and
//     reloaded by the next boot (same replica, same disk).
//   - A replica joining a fleet can bulk-fetch the keys it owns on the ring
//     from every peer's cache over GET /v1/cache/owned (WarmFromPeers), so
//     ownership that moved to it in a reshard arrives pre-solved.
//
// Both paths lose nothing on failure: a cold entry is re-solved on first
// use.

// cacheDumpFile sits next to the escrow snapshot under -data-dir.
const cacheDumpFile = "plancache.json"

// maxCacheWarmEntries bounds one /v1/cache/owned response so a huge cache
// cannot make the warm call a memory event on either side.
const maxCacheWarmEntries = 4096

// cacheOwnedResponse is the GET /v1/cache/owned payload.
type cacheOwnedResponse struct {
	Plans []savedPlan `json:"plans"`
}

func (s *Server) cacheDumpPath() string {
	if s.cfg.Store == nil {
		return ""
	}
	return filepath.Join(s.cfg.Store.Dir(), cacheDumpFile)
}

// saveCache dumps the plan cache under the data dir, durably (see
// tenant.WriteFileDurable): a power loss right after Close must not surface
// an empty or missing dump.
func (s *Server) saveCache() {
	path := s.cacheDumpPath()
	if path == "" {
		return
	}
	entries := s.cache.dump()
	raw, err := json.Marshal(entries)
	if err != nil {
		s.logOp().Error("plan cache dump encode failed", "error", err.Error())
		return
	}
	if err := tenant.WriteFileDurable(path, raw); err != nil {
		s.logOp().Error("plan cache dump failed", "error", err.Error())
		return
	}
	s.logOp().Info("plan cache dumped", "entries", len(entries), "path", path)
}

// loadCache warms the cache from the previous run's dump; absence is just a
// first boot, corruption is logged and skipped (the cache re-fills itself).
func (s *Server) loadCache() {
	path := s.cacheDumpPath()
	if path == "" {
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return
	}
	var entries []savedPlan
	if err := json.Unmarshal(raw, &entries); err != nil {
		s.logOp().Warn("plan cache dump unreadable", "path", path, "error", err.Error())
		return
	}
	s.logOp().Info("plan cache warmed from disk", "entries", s.cache.load(entries))
}

// handleCacheOwned serves GET /v1/cache/owned?holder=<base-url>: the cached
// plans whose keys the named replica owns on this replica's current ring
// view. A booting replica calls this on every peer to arrive pre-solved for
// its keyspace share. Without a ring there is no ownership to filter by and
// the answer is empty.
func (s *Server) handleCacheOwned(w http.ResponseWriter, r *http.Request) {
	holder := r.URL.Query().Get("holder")
	if holder == "" {
		s.apiError(w, r, http.StatusBadRequest, "holder query parameter is required")
		return
	}
	resp := cacheOwnedResponse{Plans: []savedPlan{}}
	if rs := s.ringSt.Load(); rs != nil {
		to := []string{holder}
		owned := plansByReplica(s.cache.dump(), func(key string) []string {
			if owner, ok := rs.ring.Owner(key); ok && owner == holder {
				return to
			}
			return nil
		})
		resp.Plans = append(resp.Plans, owned[holder]...)
	}
	s.writeJSON(w, r, http.StatusOK, resp)
}

// WarmFromPeers bulk-fetches the plans this replica owns from every peer's
// cache. cmd/chronosd calls it once at boot, after the ring is configured
// and before (or concurrently with) serving traffic; failures are logged
// and skipped — a peer that cannot answer just means those keys are solved
// on first use. Returns the number of plans loaded.
func (s *Server) WarmFromPeers(ctx context.Context) int {
	rs := s.ringSt.Load()
	if rs == nil {
		return 0
	}
	total := 0
	for _, peer := range rs.peers {
		ans, outcome := peer.call(ctx, http.MethodGet,
			"/v1/cache/owned?holder="+url.QueryEscape(rs.self), nil)
		if outcome != peerAnswered || ans.status != http.StatusOK {
			s.logOp().Warn("cache warm failed", "peer", peer.base, "status", ans.status)
			continue
		}
		var resp cacheOwnedResponse
		if err := json.Unmarshal(ans.body, &resp); err != nil {
			continue
		}
		total += s.cache.load(resp.Plans)
	}
	if total > 0 {
		s.logOp().Info("plan cache warmed from peers", "entries", total)
	}
	return total
}
