package ring

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"chronos"
	"chronos/internal/plankey"
)

// sampleKeys returns a deterministic sample of real plan keys (plankey's
// exact-bit format over jobs that differ in a few fields), so the
// distribution properties are measured on the key population the ring
// actually shards.
func sampleKeys(n int) []string {
	keys := make([]string, n)
	econ := chronos.Econ{Theta: 1e-4, UnitPrice: 1}
	for i := range keys {
		tmin := 30.0 + float64(i%97)
		keys[i] = plankey.Key("", chronos.JobParams{
			Tasks: 100 + i%400, Deadline: 1800.0 + float64(i), TMin: tmin, Beta: 1.6,
			TauEst: 0.3 * tmin, TauKill: 0.6 * tmin,
		}, econ)
	}
	return keys
}

func fleet(n int) []string {
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("http://10.0.0.%d:8080", i+1)
	}
	return nodes
}

func TestNewDedupesAndSorts(t *testing.T) {
	r := New([]string{"b", "", "a", "b", "a"})
	got := r.Nodes()
	want := []string{"a", "b"}
	if len(got) != len(want) || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Nodes() = %v, want %v", got, want)
	}
	if r.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", r.Len())
	}
}

func TestEmptyRingHasNoOwner(t *testing.T) {
	r := New(nil)
	if owner, ok := r.Owner("key"); ok {
		t.Fatalf("empty ring returned owner %q", owner)
	}
	if owner, ok := r.OwnerBytes([]byte("key")); ok {
		t.Fatalf("empty ring returned owner %q", owner)
	}
}

func TestSingleNodeOwnsEverything(t *testing.T) {
	r := New([]string{"solo"})
	for _, key := range sampleKeys(100) {
		owner, ok := r.Owner(key)
		if !ok || owner != "solo" {
			t.Fatalf("Owner(%q) = %q, %v; want solo, true", key, owner, ok)
		}
	}
}

func TestOwnerIsDeterministicAcrossConstructions(t *testing.T) {
	nodes := fleet(5)
	a, b := New(nodes), New(nodes)
	for _, key := range sampleKeys(1000) {
		oa, _ := a.Owner(key)
		ob, _ := b.Owner(key)
		if oa != ob {
			t.Fatalf("Owner(%q) differs between identical rings: %q vs %q", key, oa, ob)
		}
	}
}

func TestOwnerIgnoresMemberOrder(t *testing.T) {
	nodes := fleet(6)
	shuffled := []string{nodes[3], nodes[0], nodes[5], nodes[1], nodes[4], nodes[2]}
	a, b := New(nodes), New(shuffled)
	for _, key := range sampleKeys(1000) {
		oa, _ := a.Owner(key)
		ob, _ := b.Owner(key)
		if oa != ob {
			t.Fatalf("Owner(%q) depends on construction order: %q vs %q", key, oa, ob)
		}
	}
}

// TestKeyDistributionNearUniform is the load-balance property the serving
// layer depends on: across fleet sizes 3–16, every replica's share of a
// 10k-key sample stays within ±15% of uniform.
func TestKeyDistributionNearUniform(t *testing.T) {
	keys := sampleKeys(10000)
	for n := 3; n <= 16; n++ {
		nodes := fleet(n)
		r := New(nodes)
		counts := make(map[string]int, n)
		for _, key := range keys {
			owner, ok := r.Owner(key)
			if !ok {
				t.Fatalf("n=%d: no owner for %q", n, key)
			}
			counts[owner]++
		}
		uniform := float64(len(keys)) / float64(n)
		for _, node := range nodes {
			dev := (float64(counts[node]) - uniform) / uniform
			if math.Abs(dev) > 0.15 {
				t.Errorf("n=%d: %s owns %d keys, %.1f%% from uniform %g (limit ±15%%)",
					n, node, counts[node], 100*dev, uniform)
			}
		}
	}
}

// TestMembershipChangeRemapsFewKeys is the consistency property: a join
// moves only the keys the joiner wins, and a leave moves only the leaver's
// keys, so a rolling resize keeps the rest of the fleet cache warm.
func TestMembershipChangeRemapsFewKeys(t *testing.T) {
	keys := sampleKeys(10000)
	for _, n := range []int{3, 4, 8, 15} {
		grown := fleet(n + 1)
		joiner := grown[n]
		before := New(grown[:n])
		after := New(grown)

		won := 0
		for _, key := range keys {
			ob, _ := before.Owner(key)
			oa, _ := after.Owner(key)
			switch {
			case oa == joiner:
				won++
			case ob != oa:
				t.Fatalf("adding %s to %d members moved %q from %s to %s", joiner, n, key, ob, oa)
			}
		}
		if won == 0 {
			t.Errorf("adding 1 member to %d: the joiner won none of %d keys", n, len(keys))
		}

		// Removal is the inverse comparison: everything the leaver owned
		// moves, and nothing else.
		for _, key := range keys {
			oa, _ := after.Owner(key)
			ob, _ := before.Owner(key)
			if oa != joiner && ob != oa {
				t.Fatalf("removing %s from %d members moved %q from %s to %s", joiner, n+1, key, oa, ob)
			}
		}
	}
}

// TestOwnerIsHighestScore holds Owner and OwnerBytes to a brute-force
// argmax of the score over the members, in construction order, with a tie
// going to the member whose name sorts first.
func TestOwnerIsHighestScore(t *testing.T) {
	nodes := fleet(7)
	nodes[0], nodes[6] = nodes[6], nodes[0]
	r := New(nodes)
	counts := map[string]int{}
	for _, key := range sampleKeys(2000) {
		want, wantScore := "", uint64(0)
		for _, n := range nodes {
			s := score(Hash(key), Hash(n))
			if want == "" || s > wantScore || (s == wantScore && n < want) {
				want, wantScore = n, s
			}
		}
		if owner, ok := r.Owner(key); !ok || owner != want {
			t.Fatalf("Owner(%q) = %q, %v; the highest score is %s's", key, owner, ok, want)
		}
		if owner, _ := r.OwnerBytes([]byte(key)); owner != want {
			t.Fatalf("OwnerBytes(%q) = %q; the highest score is %s's", key, owner, want)
		}
		counts[want]++
	}
	if len(counts) != len(nodes) {
		t.Errorf("2000 keys went to %d of %d members: %v", len(counts), len(nodes), counts)
	}

	// Two members whose hashes collide score every key alike.
	tied := &Ring{nodes: []string{"a", "b"}, hashes: []uint64{Hash("b"), Hash("b")}}
	for _, key := range sampleKeys(100) {
		if owner, _ := tied.Owner(key); owner != "a" {
			t.Fatalf("tied Owner(%q) = %q, want a (sorts first)", key, owner)
		}
	}
}

// TestHashPinned holds Hash to the values the plan cache's own key hash
// returned before the ring shared it, on real plan keys and on short keys
// that exercise the byte-wise tail: every key keeps its cache shard.
func TestHashPinned(t *testing.T) {
	keys := sampleKeys(4)
	econ := chronos.Econ{Theta: 1e-4, UnitPrice: 1}
	keys = append(keys, plankey.Key("etl", chronos.JobParams{Tasks: 10, Deadline: 100, TMin: 10, Beta: 2, TauEst: 3, TauKill: 6}, econ),
		"", "a", "tenant\x00etl", "http://10.0.0.1:8080")
	want := []uint64{0x69a81c9e40853709, 0xaf388c12152a3a3, 0xfccd9f4633511c9b, 0x3f9a99e1a25bd0e0,
		0xeffb5492f4b74fad, 0xefd01f60ba992926, 0x82a2a958a9bece5b, 0x86ada9413fc9aba3, 0x29a2fdcff4ec63d1}
	for i, key := range keys {
		if got := Hash(key); got != want[i] {
			t.Errorf("Hash(%q) = %#x, want %#x", key, got, want[i])
		}
		if got := Hash([]byte(key)); got != want[i] {
			t.Errorf("Hash([]byte(%q)) = %#x, want %#x", key, got, want[i])
		}
	}
}

// --- eviction ---------------------------------------------------------------

// TestSuccessorInheritsOnEviction is the property membership removal relies
// on: when a member leaves the ring, each of its keys is inherited by one of
// the remaining members, and no other key changes owner.
func TestSuccessorInheritsOnEviction(t *testing.T) {
	nodes := fleet(5)
	r := New(nodes)
	for _, dead := range nodes {
		survivors := make([]string, 0, len(nodes)-1)
		for _, n := range nodes {
			if n != dead {
				survivors = append(survivors, n)
			}
		}
		after := New(survivors)
		inherited := map[string]int{}
		for _, key := range sampleKeys(2000) {
			owner, _ := r.Owner(key)
			newOwner, ok := after.Owner(key)
			switch {
			case !ok || newOwner == dead:
				t.Fatalf("after evicting %s, Owner(%q) = %q, %v, want a remaining member", dead, key, newOwner, ok)
			case owner != dead && newOwner != owner:
				t.Fatalf("evicting %s moved %q from %s to %s", dead, key, owner, newOwner)
			case owner == dead:
				inherited[newOwner]++
			}
		}
		if len(inherited) < 2 {
			t.Errorf("the keys of %s all went to one member: %v (the scores should spread them)", dead, inherited)
		}
	}
}

// --- membership config ----------------------------------------------------

func TestMembershipMembers(t *testing.T) {
	m := Membership{
		Self:  "http://a:1/",
		Peers: []string{"http://b:2", "http://a:1", " http://c:3/ ", ""},
	}
	got := m.Members()
	want := []string{"http://a:1", "http://b:2", "http://c:3"}
	if len(got) != len(want) {
		t.Fatalf("Members() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members() = %v, want %v", got, want)
		}
	}
}

func TestMembershipValidate(t *testing.T) {
	tests := []struct {
		name    string
		m       Membership
		wantErr bool
	}{
		{"zero is valid (sharding off)", Membership{}, false},
		{"self only", Membership{Self: "http://a:1"}, false},
		{"self with peers", Membership{Self: "http://a:1", Peers: []string{"http://b:2"}}, false},
		{"peers without self", Membership{Peers: []string{"http://b:2"}}, true},
		{"blank peer", Membership{Self: "http://a:1", Peers: []string{"  "}}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.m.Validate(); (err != nil) != tt.wantErr {
				t.Fatalf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

// TestValidateRejectsUndialableMember: a member URL no replica can dial used
// to load without a word — every forward to it failed, its breaker opened,
// and its share of the keyspace was served by cold local fallback for good.
func TestValidateRejectsUndialableMember(t *testing.T) {
	for _, member := range []string{
		"127.0.0.1:8081",    // no scheme
		"ftp://a",           // not HTTP
		"http://a:1/prefix", // chronosd serves from the root
		"http://",           // normalizes to the member "http:"
		"https://a:1",       // chronosd has no TLS listener
		"http://u@a:1", "http://a:1?x=1", "http://a:1#f", "http://a:99999", "HTTP://a:1",
	} {
		for _, m := range []Membership{
			{Self: "http://s:1", Peers: []string{"http://b:2", member}},
			{Self: member, Peers: []string{"http://b:2"}},
		} {
			err := m.Validate()
			if err == nil || !strings.Contains(err.Error(), strconv.Quote(member)) {
				t.Errorf("Validate(%+v) = %v, want an error naming %q", m, err, member)
			}
		}
	}
	if err := (Membership{Self: "http://s:1", Peers: []string{"https://a:1"}}).Validate(); err == nil || !strings.Contains(err.Error(), "TLS") {
		t.Errorf("https member: %v, want the reason (no TLS listener)", err)
	}
	ok := Membership{Self: " http://s:1/ ", Peers: []string{"http://b", "http://[::1]:8080", "http://10.0.0.1:8080/"}}
	if err := ok.Validate(); err != nil {
		t.Errorf("Validate(%+v) = %v", ok, err)
	}
	for member, want := range map[string]string{"http://b": "b:80", "http://[::1]": "[::1]:80", "http://10.0.0.1:8080": "10.0.0.1:8080"} {
		if got, err := DialAddr(member); err != nil || got != want {
			t.Errorf("DialAddr(%q) = %q, %v, want %q", member, got, err, want)
		}
	}
}

func TestParsePeers(t *testing.T) {
	got := ParsePeers(" http://a:1 ,,http://b:2, ")
	if len(got) != 2 || got[0] != "http://a:1" || got[1] != "http://b:2" {
		t.Fatalf("ParsePeers = %v", got)
	}
	if got := ParsePeers(""); got != nil {
		t.Fatalf("ParsePeers(\"\") = %v, want nil", got)
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "ring.json")
	if err := os.WriteFile(good, []byte(`{"self":"http://a:1","peers":["http://b:2"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadFile(good)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if m.Self != "http://a:1" || len(m.Peers) != 1 {
		t.Fatalf("LoadFile = %+v", m)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"self":"","peers":["http://b:2"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(bad); err == nil {
		t.Fatal("LoadFile accepted peers without self")
	}

	unknown := filepath.Join(dir, "unknown.json")
	if err := os.WriteFile(unknown, []byte(`{"self":"http://a:1","nodes":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(unknown); err == nil {
		t.Fatal("LoadFile accepted unknown fields")
	}

	if _, err := LoadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("LoadFile accepted a missing file")
	}
}

// TestLoadFileRejectsTrailingData: the streaming decoder LoadFile reads with
// stops at the end of the first document, so a second membership (or garbage)
// after it used to load without a word.
func TestLoadFileRejectsTrailingData(t *testing.T) {
	dir := t.TempDir()
	good := `{"self":"http://a:1","peers":["http://b:2"]}`
	for name, doc := range map[string]string{
		"second document": good + ` {"self":"http://evil:1"} garbage`,
		"garbage":         good + ` xyz`,
		"closing brace":   good + ` }`,
	} {
		path := filepath.Join(dir, "ring.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if m, err := LoadFile(path); err == nil {
			t.Errorf("%s: loaded %+v, want an error", name, m)
		}
	}
	path := filepath.Join(dir, "ring.json")
	if err := os.WriteFile(path, []byte(good+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err != nil {
		t.Errorf("trailing newline: %v", err)
	}
}

// TestLoadFileRejectsUndialableMember: the -ring file goes through the same
// check, so boot exits and a SIGHUP reload keeps the previous ring.
func TestLoadFileRejectsUndialableMember(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ring.json")
	if err := os.WriteFile(path, []byte(`{"self":"http://a:1","peers":["http://b:2","c:3"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if m, err := LoadFile(path); err == nil || !strings.Contains(err.Error(), `"c:3"`) {
		t.Errorf("loaded %+v, %v, want an error naming \"c:3\"", m, err)
	}
}

func BenchmarkOwner(b *testing.B) {
	r := New(fleet(8))
	keys := sampleKeys(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = r.Owner(keys[i&1023])
	}
}

// TestTenantOwnerIsPrefixedKey pins where a tenant's pool lives: on the owner
// of "tenant:" + name, the key servers and clients of every version place it
// by.
func TestTenantOwnerIsPrefixedKey(t *testing.T) {
	r := New([]string{"http://a:1", "http://b:2", "http://c:3"})
	for _, name := range []string{"etl", "deep", "tight-0", ""} {
		want, _ := r.Owner("tenant:" + name)
		if got, ok := r.TenantOwner(name); !ok || got != want {
			t.Errorf("TenantOwner(%q) = %q, %v; want %q, true", name, got, ok, want)
		}
	}
	if _, ok := New(nil).TenantOwner("etl"); ok {
		t.Error("an empty ring reported a tenant owner")
	}
}
