package server

import (
	"net/http"
	"sync"
	"time"

	"chronos/internal/obs"
	"chronos/internal/ring"
)

// Health-driven fleet membership. A static ring (-self/-peers + SIGHUP) means
// a dead replica keeps owning its arc: every request for its keys pays a
// breaker trip and a cold local fallback until an operator edits the config.
// The heartbeat monitor closes that loop without any SWIM-style gossip: each
// replica probes every configured member's GET /healthz on a fixed interval,
// evicts a member from its EFFECTIVE ring view after SuspectAfter
// consecutive failures, and re-admits it after ReadmitAfter consecutive
// successes. Eviction remaps each of the dead member's plan keys to one of
// the survivors, which solves them on first use; re-admission maps them back.
// Tenant pools do not move with it: they stay owned on the configured ring
// (see SetRing), so a dead pool owner's tenants are refused, not re-funded.
//
// Views are per-replica and eventually consistent: two replicas may briefly
// disagree about a flapping member, which costs at most the usual one-hop
// forward + ownership-drift fallback, never a wrong answer.

// healthState is the monitor's view of the fleet: the operator-configured
// membership plus per-member probe counters and the current suspect set.
// Guarded by mu; the effective ring derived from it is published through
// Server.ringSt by applyRing.
type healthState struct {
	mu         sync.Mutex
	configured ring.Membership
	ring       *ring.Ring // over configured's members; nil when sharding is off
	suspects   map[string]bool
	fails      map[string]int
	oks        map[string]int
}

// pruneLocked drops probe state for members no longer configured. Caller
// holds mu.
func (h *healthState) pruneLocked(members []string) {
	keep := make(map[string]bool, len(members))
	for _, m := range members {
		keep[m] = true
	}
	for m := range h.suspects {
		if !keep[m] {
			delete(h.suspects, m)
		}
	}
	for m := range h.fails {
		if !keep[m] {
			delete(h.fails, m)
		}
	}
	for m := range h.oks {
		if !keep[m] {
			delete(h.oks, m)
		}
	}
}

// effectiveLocked returns the configured members minus current suspects;
// self is never suspect. Caller holds mu.
func (h *healthState) effectiveLocked(self string) []string {
	all := h.configured.Members()
	out := make([]string, 0, len(all))
	for _, m := range all {
		if m != self && h.suspects[m] {
			continue
		}
		out = append(out, m)
	}
	return out
}

// runHealthMonitor is the heartbeat loop, started by New when
// cfg.HeartbeatInterval > 0 and stopped by Close. It idles cheaply while no
// ring is configured, so chronosd can always run it.
func (s *Server) runHealthMonitor() {
	defer close(s.healthDone)
	// Probes get their own short-timeout net/http client rather than
	// peerState.call: a probe slower than the interval is as good as failed,
	// it must reach configured members that are evicted and so have no
	// peerState, and its verdict must not touch a breaker.
	probeClient := &http.Client{Timeout: s.cfg.HeartbeatInterval}
	ticker := time.NewTicker(s.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.healthStop:
			return
		case <-ticker.C:
			s.heartbeatRound(probeClient)
		}
	}
}

// heartbeatRound probes every configured member once and applies any
// suspect/alive transitions to the effective ring. The whole round is one
// StageHeartbeat observation, so probe latency inflation (a peer answering
// slowly but in time) is visible before it becomes an eviction.
func (s *Server) heartbeatRound(probeClient *http.Client) {
	s.health.mu.Lock()
	m := s.health.configured
	s.health.mu.Unlock()
	if !m.Enabled() {
		return
	}
	start := time.Now()
	self := ring.NormalizeURL(m.Self)
	changed := false
	for _, member := range m.Members() {
		if member == self {
			continue
		}
		changed = s.recordProbe(member, s.probe(probeClient, member)) || changed
	}
	if changed {
		s.health.mu.Lock()
		members, configured := s.health.effectiveLocked(self), s.health.ring
		s.health.mu.Unlock()
		s.applyRing(self, members, configured)
	}
	s.metrics.stageSeconds[obs.StageHeartbeat].Observe(time.Since(start).Seconds())
}

// probe performs one GET /healthz liveness check.
func (s *Server) probe(client *http.Client, member string) bool {
	req, err := http.NewRequest(http.MethodGet, member+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// recordProbe folds one probe result into the member's counters and reports
// whether its suspect status flipped. Transitions are logged and counted:
// the eviction/re-admission lines are what the ring demo (and an operator's
// log search) keys on.
func (s *Server) recordProbe(member string, alive bool) bool {
	s.health.mu.Lock()
	defer s.health.mu.Unlock()
	if s.health.suspects == nil {
		s.health.suspects = make(map[string]bool)
		s.health.fails = make(map[string]int)
		s.health.oks = make(map[string]int)
	}
	if alive {
		s.health.fails[member] = 0
		s.health.oks[member]++
		if s.health.suspects[member] && s.health.oks[member] >= s.cfg.ReadmitAfter {
			delete(s.health.suspects, member)
			s.metrics.ringReadmits.Inc()
			s.logOp().Info("ring member recovered, re-admitting",
				"member", member, "okProbes", s.health.oks[member])
			return true
		}
		return false
	}
	s.health.oks[member] = 0
	s.health.fails[member]++
	s.metrics.ringHeartbeatFails.inc(member)
	if !s.health.suspects[member] && s.health.fails[member] >= s.cfg.SuspectAfter {
		s.health.suspects[member] = true
		s.metrics.ringEvictions.Inc()
		s.logOp().Warn("ring member suspected, evicting",
			"member", member, "failedProbes", s.health.fails[member])
		return true
	}
	return false
}
