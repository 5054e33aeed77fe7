package server

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"

	"chronos/internal/obs"
	"chronos/internal/tenant"
)

// TestMetricsGolden renders /metrics over a fixed counter state and compares
// it byte for byte with testdata/metrics.golden, which was generated by the
// pre-counterVec writers over the same state: every labelled family (int and
// string labels, two-label tenant families, quoted label values, float
// gauges), both histogram families, and the sort order of each.
func TestMetricsGolden(t *testing.T) {
	reg, err := tenant.NewRegistry(map[string]tenant.Limits{
		"alpha": {Budget: 1000}, "beta": {Budget: 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Tenants: reg, Escrow: true,
		Self: "http://127.0.0.1:3", Peers: []string{"http://127.0.0.1:1", "http://127.0.0.1:2"},
	})
	defer s.Close()
	m := s.metrics
	for _, code := range []int{200, 200, 200, 400, 1000, 99} {
		seconds := 0.002
		if code == 200 {
			seconds = 0.001
		}
		m.endpoint("/v1/plan").observe(code, seconds)
	}
	m.endpoint("/v1/admit").observe(200, 0.25)
	m.endpoint("/v1/admit").observe(429, 3)
	for _, strategy := range []string{"Clone", "Clone", "Speculative-Resume"} {
		m.plans.inc(strategy)
	}
	for _, strategy := range []string{"Speculative-Restart", "Clone", "Clone"} {
		m.tenantAdmit("beta", strategy)
	}
	m.tenantReject("alpha", "infeasible_deadline")
	m.tenantReject("alpha", "budget_exhausted")
	m.tenantReject("beta", "budget_exhausted")
	m.tenantReject("gamma<\"", "budget_exhausted")
	for _, peer := range []string{"http://127.0.0.1:2", "http://127.0.0.1:2", "http://127.0.0.1:1"} {
		m.ringForwards.inc(peer)
	}
	m.ringErrors.inc("http://127.0.0.1:2")
	m.ringHeartbeatFails.inc("http://127.0.0.1:1")
	m.escrowGrants.inc("beta")
	for _, name := range []string{"alpha", "alpha", "beta"} {
		m.escrowTopups.inc(name)
	}
	m.escrowReclaims.inc("beta")
	s.escrow.lease("beta").Fund(12.5)
	s.escrow.lease("alpha")
	m.stageSeconds[obs.StageSolve].Observe(0.0004)
	m.ringLocalFallbacks.Inc()
	m.ringReplicaReads.Inc()
	m.flightWaiters.Inc()
	m.replayEmit(true)

	var buf bytes.Buffer
	m.writePrometheus(&buf, s.cache, s.tenants.Load(), s.ringSt.Load(), s.escrow)
	got := regexp.MustCompile(`(?m)^chronosd_uptime_seconds .*$`).
		ReplaceAll(buf.Bytes(), []byte("chronosd_uptime_seconds X"))
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i, w := range wantLines {
		if i >= len(gotLines) || gotLines[i] != w {
			t.Fatalf("/metrics differs from the golden at line %d, want %q", i+1, w)
		}
	}
	t.Fatalf("/metrics has %d lines, golden has %d", len(gotLines), len(wantLines))
}
