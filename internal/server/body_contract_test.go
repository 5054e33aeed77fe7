package server

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"chronos/api"
	"chronos/internal/tenant"
)

// TestBodyContractUniform: every POST endpoint accepts exactly the same set
// of bodies — one JSON value of the endpoint's shape with no key that shape
// does not declare, whitespace around it allowed — and answers every other
// body with the same status and code. The
// streaming decoder six of them used to read with stopped at the end of
// the first value, so `{...} xyz` was a 200 (on /v1/admit/batch a 200 with a
// ledger debit) where /v1/plan and /v1/admit answered 400.
func TestBodyContractUniform(t *testing.T) {
	reg, err := tenant.NewRegistry(map[string]tenant.Limits{
		"team": {Budget: 5000, Theta: 1e-4, UnitPrice: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Tenants: reg, MaxBodyBytes: wireMaxBody})
	t.Cleanup(s.Close)

	endpoints := []struct{ path, valid string }{
		{"/v1/plan", `{"job":` + wireJob + `,"econ":` + wireEcon + `}`},
		{"/v1/plan/batch", `{"jobs":[{"job":` + wireJob + `}],"budget":5000,"econ":` + wireEcon + `}`},
		{"/v1/admit", `{"tenant":"team","job":` + wireJob + `}`},
		{"/v1/admit/batch", `{"tenant":"team","jobs":[{"job":` + wireJob + `}]}`},
		{"/v1/replay", `{"config":{"strategy":"clone","seed":7},"jobs":[` + wireSimJob + `]}`},
	}
	malformed := []struct {
		name   string
		body   func(valid string) string
		status int
		code   string
	}{
		{"trailing bytes", func(v string) string { return v + " xyz" }, 400, api.CodeBadRequest},
		{"second object", func(v string) string { return v + "\n" + v }, 400, api.CodeBadRequest},
		{"empty body", func(string) string { return "" }, 400, api.CodeBadRequest},
		{"limit+1 bytes", func(string) string { return strings.Repeat("x", wireMaxBody+1) }, 413, api.CodePayloadTooLarge},
		{"wrong top-level type", func(string) string { return `[]` }, 400, api.CodeBadRequest},
		{"unknown key", func(v string) string { return `{"unknown":1,` + v[1:] }, 400, api.CodeBadRequest},
	}
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			_, _ = io.Copy(io.Discard, resp.Body)
			return resp.StatusCode, ""
		}
		return resp.StatusCode, decodeBody[api.ErrorResponse](t, resp).Code
	}

	team := s.Tenants().Get("team")
	for _, ep := range endpoints {
		before := team.Remaining()
		for _, m := range malformed {
			if status, code := post(ep.path, m.body(ep.valid)); status != m.status || code != m.code {
				t.Errorf("%s, %s: %d %q, want %d %q", ep.path, m.name, status, code, m.status, m.code)
			}
		}
		if after := team.Remaining(); after != before {
			t.Errorf("%s: rejected bodies moved the ledger from %g to %g", ep.path, before, after)
		}
		// The rule is about what follows the value, not about whitespace.
		if status, _ := post(ep.path, " "+ep.valid+"\n"); status != http.StatusOK {
			t.Errorf("%s: the valid body answered %d, want 200", ep.path, status)
		}
	}
}
