package ring

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/url"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Membership names this replica and its fleet. It is the unit of ring
// reconfiguration: chronosd builds it from the -self/-peers flags or loads
// it from the -ring JSON file, and SIGHUP swaps a freshly loaded Membership
// into the serving layer.
type Membership struct {
	// Self is this replica's own base URL as the fleet addresses it
	// (http://host:port).
	Self string `json:"self"`
	// Peers are the fleet members' base URLs, in the same form. Self may be
	// included or not; Members always adds it.
	Peers []string `json:"peers"`
}

// Enabled reports whether the membership describes a ring at all. A zero
// Membership disables sharding.
func (m Membership) Enabled() bool {
	return m.Self != "" || len(m.Peers) > 0
}

// Validate checks the invariants the serving layer depends on: a ring with
// peers must know its own identity, and every member, self included, must be
// a base URL its peers can dial (see DialAddr). A member that cannot be
// dialed would otherwise load without a word and cost its share of the
// keyspace: every forward to it fails, its breaker opens, and its keys are
// served by cold local fallback for as long as the membership stands.
func (m Membership) Validate() error {
	if !m.Enabled() {
		return nil
	}
	if m.Self == "" {
		return fmt.Errorf("ring: peers configured but self is empty")
	}
	for _, member := range append([]string{m.Self}, m.Peers...) {
		if _, err := DialAddr(NormalizeURL(member)); err != nil {
			return fmt.Errorf("ring: member %q %w", member, err)
		}
	}
	return nil
}

// DialAddr returns the host:port at which a normalized member URL is dialed,
// or the reason the URL cannot name a chronosd replica. A member is exactly
// http://host[:port]: chronosd has no TLS listener and serves from the root,
// and the URL's text is the member's identity on the ring, so userinfo, a
// path, a query or a fragment is a misconfiguration rather than a variant.
func DialAddr(member string) (string, error) {
	u, err := url.Parse(member)
	if err != nil {
		return "", fmt.Errorf("does not parse: %w", err)
	}
	if u.Scheme == "https" {
		return "", errors.New("is https, and chronosd has no TLS listener: members are plain http:// URLs")
	}
	if u.Hostname() == "" || member != "http://"+u.Host {
		return "", errors.New("is not of the form http://host[:port] (no userinfo, path, query or fragment)")
	}
	port := u.Port()
	if port == "" {
		return net.JoinHostPort(u.Hostname(), "80"), nil
	}
	if _, err := strconv.ParseUint(port, 10, 16); err != nil {
		return "", fmt.Errorf("has port %s, which is out of range", port)
	}
	return u.Host, nil
}

// Members returns the full deduplicated member set — peers plus self, each
// normalized with NormalizeURL — sorted for determinism.
func (m Membership) Members() []string {
	out := make([]string, 0, len(m.Peers)+1)
	for _, u := range append([]string{m.Self}, m.Peers...) {
		if u = NormalizeURL(u); u != "" {
			out = append(out, u)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// NormalizeURL canonicalizes a member URL so that textual variants of the
// same address ("http://a:1/" vs "http://a:1") hash to the same ring
// placement on every replica.
func NormalizeURL(u string) string {
	return strings.TrimRight(strings.TrimSpace(u), "/")
}

// ParsePeers splits a comma-separated -peers flag value, dropping empty
// elements.
func ParsePeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// LoadFile reads a Membership from a JSON file of the form
// {"self": "http://...", "peers": ["http://...", ...]} — that one document,
// with no other key and nothing after it — and validates it.
func LoadFile(path string) (Membership, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Membership{}, fmt.Errorf("ring: %w", err)
	}
	var m Membership
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return Membership{}, fmt.Errorf("ring: parse %s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Membership{}, fmt.Errorf("ring: parse %s: data after the document", path)
	}
	if err := m.Validate(); err != nil {
		return Membership{}, fmt.Errorf("%w (in %s)", err, path)
	}
	return m, nil
}
