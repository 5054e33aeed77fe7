package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"testing"

	"chronos"
	"chronos/api"
	"chronos/internal/ring"
	"chronos/internal/tenant"
)

// TestCacheOwnedTruncatesAtWarmCap pins the maxCacheWarmEntries bound on
// both sides of the peer-warm path: a holder owning far more cached keys
// than the cap gets exactly the cap from GET /v1/cache/owned, and
// WarmFromPeers loads exactly that many and terminates.
func TestCacheOwnedTruncatesAtWarmCap(t *testing.T) {
	const total = 3 * maxCacheWarmEntries
	s, ts := newTestServer(t, Config{CacheCapacity: 4 * maxCacheWarmEntries})
	holder := "http://holder.invalid:9"
	if err := s.SetRing(ring.Membership{Self: ts.URL, Peers: []string{holder}}); err != nil {
		t.Fatal(err)
	}
	entries := make([]savedPlan, total)
	for i := range entries {
		entries[i] = savedPlan{Key: fmt.Sprintf("warm-key-%d", i), Plan: chronos.Plan{Strategy: chronos.Clone, PoCD: 1}}
	}
	if got := s.cache.load(entries); got != total {
		t.Fatalf("cache.load loaded %d entries, want %d", got, total)
	}

	// On a 2-member ring the holder owns roughly half of the keys — well
	// above the cap, so the response must truncate to exactly the cap.
	resp, err := http.Get(ts.URL + "/v1/cache/owned?holder=" + url.QueryEscape(holder))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache/owned: status = %d, want 200", resp.StatusCode)
	}
	out := decodeBody[cacheOwnedResponse](t, resp)
	if len(out.Plans) != maxCacheWarmEntries {
		t.Fatalf("cache/owned returned %d plans, want the %d cap (holder owns ~%d of %d keys)",
			len(out.Plans), maxCacheWarmEntries, total/2, total)
	}
	rs := s.ringSt.Load()
	for _, p := range out.Plans {
		if owner, _ := rs.ring.Owner(p.Key); owner != holder {
			t.Fatalf("cache/owned leaked key %q owned by %q, want only %q", p.Key, owner, holder)
		}
	}

	// Pull side: the warming replica loads the capped response and stops.
	w := New(Config{CacheCapacity: 4 * maxCacheWarmEntries})
	if err := w.SetRing(ring.Membership{Self: holder, Peers: []string{ts.URL}}); err != nil {
		t.Fatal(err)
	}
	if got := w.WarmFromPeers(context.Background()); got != maxCacheWarmEntries {
		t.Fatalf("WarmFromPeers loaded %d entries, want %d", got, maxCacheWarmEntries)
	}
	if _, _, n := w.CacheStats(); n != maxCacheWarmEntries {
		t.Fatalf("warmed replica caches %d entries, want %d", n, maxCacheWarmEntries)
	}
}

// TestCorruptCacheDumpIsSkippedAndRewritten: a torn plancache.json (the
// dump a power loss mid-write could leave without the fsync ceremony) must
// not stop the server from booting; the next graceful shutdown rewrites a
// valid dump that the following boot warms from.
func TestCorruptCacheDumpIsSkippedAndRewritten(t *testing.T) {
	dir := t.TempDir()
	open := func() *tenant.Store {
		st, err := tenant.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if err := os.WriteFile(filepath.Join(dir, cacheDumpFile), []byte(`[{"key":"torn-mid-wr`), 0o644); err != nil {
		t.Fatal(err)
	}

	store1 := open()
	s1, ts1 := newTestServer(t, Config{Store: store1})
	if _, _, n := s1.CacheStats(); n != 0 {
		t.Fatalf("corrupt dump warmed %d entries, want 0", n)
	}
	resp := postJSON(t, ts1.URL+"/v1/plan", api.PlanRequest{Job: testJob(), Econ: testEcon()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan after corrupt-dump boot: status = %d, want 200", resp.StatusCode)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	s1.Close() // durably rewrites the dump
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	store2 := open()
	s2, _ := newTestServer(t, Config{Store: store2})
	t.Cleanup(func() {
		s2.Close()
		_ = store2.Close()
	})
	if _, _, n := s2.CacheStats(); n != 1 {
		t.Fatalf("recovered boot warmed %d entries, want the 1 plan served before shutdown", n)
	}
}
