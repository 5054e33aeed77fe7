package server

// Cross-commit pin of the /v1 wire contract. Every row posts a raw JSON string
// (never a Go struct, so this file compiles whatever the request types are
// called) to a fresh server and compares the status and the whole response
// body, traceId value blanked, with testdata/wire_golden.json. The file was
// generated at d9d3b30; rows are only ever appended.

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"chronos/internal/tenant"
)

const wireGoldenPath = "testdata/wire_golden.json"

// -update adds the rows the golden file does not have yet. It never rewrites
// a row: to re-pin one on purpose, delete it from the file first.
var updateWireGolden = flag.Bool("update", false, "add missing rows to testdata/wire_golden.json")

type wireRow struct {
	Name   string `json:"name"`
	Status int    `json:"status"`
	Body   string `json:"body"`
}

type wireCase struct {
	name   string
	path   string // with its query on the one GET endpoint
	body   string // "" on a GET
	times  int    // send the request this many times and pin the last answer; 0 means once
	escrow bool   // boot with escrow accounting on (the lease endpoint 404s without it)
}

// wireHolder is the ring member the escrow rows' server grants leases to (see
// leaseHolder).
const wireHolder = "http://127.0.0.1:2"

// wireMaxBody is the golden servers' -max-body: small, so the 413 rows stay
// small.
const wireMaxBody = 2048

const (
	wireJob   = `{"tasks":10,"deadline":100,"tmin":10,"beta":1.5,"tauEst":30,"tauKill":60}`
	wireEcon  = `{"theta":1e-4,"unitPrice":1}`
	wireTight = `{"tasks":10,"deadline":10.5,"tmin":10,"beta":1.5,"tauEst":3,"tauKill":6}`
	// wireCapped drives a pinned Restart solve into the search cap (every
	// probed r below 8,192), a 422.
	wireCapped = `{"tasks":1000,"deadline":20,"tmin":10,"beta":1.5,"tauEst":9.999997,"tauKill":15}`
	wireSimJob = `{"tasks":10,"deadline":100,"tmin":10,"beta":1.5}`
	wireBench  = `{"name":"Sort","jobs":5,"tasks":6,"spacingSeconds":300}`
)

// wireOversize is valid JSON past the body limit, so the parent's streaming
// decoder and a read-it-all reader both meet the limit before a syntax error.
var wireOversize = `{"pad":"` + strings.Repeat("x", wireMaxBody+100) + `"}`

func wireCases() []wireCase {
	var cases []wireCase
	add := func(name, path, body string) { cases = append(cases, wireCase{name: name, path: path, body: body}) }

	// The four error classes every JSON endpoint shares.
	for _, ep := range []string{"/v1/plan", "/v1/plan/batch", "/v1/admit", "/v1/admit/batch", "/v1/simulate", "/v1/replay"} {
		add(ep+" 400 invalid JSON", ep, `{"job" nope}`)
		add(ep+" 413", ep, wireOversize)
	}

	add("/v1/plan 200 best", "/v1/plan", `{"job":`+wireJob+`,"econ":`+wireEcon+`}`)
	cases = append(cases, wireCase{name: "/v1/plan 200 cached", path: "/v1/plan", times: 2,
		body: `{"job":` + wireJob + `,"econ":` + wireEcon + `,"strategy":"best"}`})
	add("/v1/plan 200 pinned", "/v1/plan", `{"strategy":"s-restart","econ":`+wireEcon+`,"job":`+wireJob+`}`)
	add("/v1/plan 200 tenant", "/v1/plan", `{"job":`+wireJob+`,"tenant":"team"}`)
	add("/v1/plan 400 unknown strategy", "/v1/plan", `{"job":`+wireJob+`,"econ":`+wireEcon+`,"strategy":"bogus"}`)
	add("/v1/plan 400 bad job", "/v1/plan", `{"job":{"tasks":10,"deadline":100,"tmin":10,"beta":0.5},"econ":`+wireEcon+`}`)
	add("/v1/plan 404 unknown tenant", "/v1/plan", `{"job":`+wireJob+`,"tenant":"nobody"}`)
	add("/v1/plan 422 infeasible", "/v1/plan", `{"job":`+wireTight+`,"econ":{"theta":1e-4,"unitPrice":1,"rmin":0.999999999}}`)
	add("/v1/plan 422 search cap", "/v1/plan", `{"job":`+wireCapped+`,"econ":`+wireEcon+`,"strategy":"restart"}`)
	add("/v1/plan 429", "/v1/plan", `{"job":`+wireJob+`,"tenant":"tiny"}`)

	batchJobs := `[{"job":` + wireJob + `},{"job":` + wireJob + `,"strategy":"clone","rmin":0.5}]`
	add("/v1/plan/batch 200", "/v1/plan/batch", `{"jobs":`+batchJobs+`,"budget":5000,"econ":`+wireEcon+`}`)
	add("/v1/plan/batch 200 tenant", "/v1/plan/batch", `{"jobs":`+batchJobs+`,"tenant":"team"}`)
	add("/v1/plan/batch 400 no jobs", "/v1/plan/batch", `{"jobs":[],"budget":5000}`)
	add("/v1/plan/batch 400 unknown strategy", "/v1/plan/batch", `{"jobs":[{"job":`+wireJob+`,"strategy":"bogus"}],"budget":5000}`)
	add("/v1/plan/batch 404 unknown tenant", "/v1/plan/batch", `{"jobs":`+batchJobs+`,"tenant":"nobody"}`)
	add("/v1/plan/batch 422 budget too small", "/v1/plan/batch", `{"jobs":`+batchJobs+`,"budget":1,"econ":`+wireEcon+`}`)
	add("/v1/plan/batch 422 infeasible", "/v1/plan/batch", `{"jobs":[{"job":`+wireJob+`},{"job":`+wireTight+`}],"budget":5000,"econ":{"theta":1e-4,"unitPrice":1,"rmin":0.999999999}}`)
	add("/v1/plan/batch 429", "/v1/plan/batch", `{"jobs":`+batchJobs+`,"tenant":"tiny"}`)

	add("/v1/admit 200 admitted", "/v1/admit", `{"tenant":"team","job":`+wireJob+`}`)
	add("/v1/admit 200 pinned", "/v1/admit", `{"tenant":"team","job":`+wireJob+`,"strategy":"resume","econ":{"theta":2e-4}}`)
	add("/v1/admit 200 budget_exhausted", "/v1/admit", `{"tenant":"tiny","job":`+wireJob+`}`)
	add("/v1/admit 200 infeasible_deadline", "/v1/admit", `{"tenant":"strict","job":`+wireTight+`}`)
	add("/v1/admit 400 unknown strategy", "/v1/admit", `{"tenant":"team","job":`+wireJob+`,"strategy":"bogus"}`)
	add("/v1/admit 400 no tenant", "/v1/admit", `{"job":`+wireJob+`}`)
	add("/v1/admit 404 unknown tenant", "/v1/admit", `{"tenant":"nobody","job":`+wireJob+`}`)
	add("/v1/admit 200 search cap", "/v1/admit", `{"tenant":"team","job":`+wireCapped+`,"strategy":"restart"}`)

	add("/v1/admit/batch 200 admitted, squeezed, budget_exhausted", "/v1/admit/batch",
		`{"tenant":"mid","jobs":[{"job":`+wireJob+`},{"job":`+wireJob+`},{"job":`+wireJob+`,"strategy":"clone"}]}`)
	add("/v1/admit/batch 200 infeasible_deadline", "/v1/admit/batch",
		`{"tenant":"strict","jobs":[{"job":`+wireJob+`,"strategy":"clone"},{"job":`+wireTight+`}]}`)
	add("/v1/admit/batch 200 budget_exhausted", "/v1/admit/batch", `{"tenant":"tiny","jobs":[{"job":`+wireJob+`}]}`)
	add("/v1/admit/batch 400 no jobs", "/v1/admit/batch", `{"tenant":"team","jobs":[]}`)
	add("/v1/admit/batch 400 unknown strategy", "/v1/admit/batch", `{"tenant":"team","jobs":[{"job":`+wireJob+`},{"job":`+wireJob+`,"strategy":"bogus"}]}`)
	add("/v1/admit/batch 404 unknown tenant", "/v1/admit/batch", `{"tenant":"nobody","jobs":[{"job":`+wireJob+`}]}`)
	add("/v1/admit/batch 200 admitted and search cap", "/v1/admit/batch", `{"tenant":"team","jobs":[{"job":`+wireJob+`},{"job":`+wireCapped+`,"strategy":"restart"}]}`)

	everyParam := "strategy=resume&tasks=10&deadline=100&tmin=10&beta=1.5&tauEst=30&tauKill=60&phiEst=0.3&theta=0.0002&price=2&rmin=0.5&maxR=6"
	add("/v1/tradeoff 200 every parameter", "/v1/tradeoff?"+everyParam, "")
	add("/v1/tradeoff 200 defaults", "/v1/tradeoff?strategy=clone&tasks=10&deadline=100&tmin=10&beta=1.5&tauEst=30&tauKill=60", "")
	add("/v1/tradeoff 400 unknown strategy", "/v1/tradeoff?strategy=bogus&tasks=10&deadline=100&tmin=10&beta=1.5", "")
	add("/v1/tradeoff 400 bad int", "/v1/tradeoff?strategy=clone&tasks=ten&deadline=100&tmin=10&beta=1.5", "")
	add("/v1/tradeoff 400 first bad parameter wins", "/v1/tradeoff?strategy=clone&tasks=10&rmin=x&deadline=y&tmin=10&beta=1.5&maxR=z", "")
	add("/v1/tradeoff 400 maxR range", "/v1/tradeoff?strategy=clone&tasks=10&deadline=100&tmin=10&beta=1.5&maxR=100000", "")
	add("/v1/tradeoff 400 bad job", "/v1/tradeoff?strategy=clone&tasks=10&deadline=100&tmin=10&beta=0.5", "")

	add("/v1/simulate 200", "/v1/simulate",
		`{"config":{"strategy":"s-resume","seed":7,"tauEst":40,"tauKill":80,"tauScale":1},"jobs":[`+wireSimJob+`,`+wireSimJob+`]}`)
	add("/v1/simulate 200 utility null", "/v1/simulate",
		`{"config":{"strategy":"Hadoop-NS","seed":7,"econ":{"theta":1e-4,"unitPrice":1,"rmin":0.999999}},"jobs":[{"tasks":40,"deadline":11,"tmin":10,"beta":1.2}]}`)
	add("/v1/simulate 400 no jobs", "/v1/simulate", `{"config":{"strategy":"clone"},"jobs":[]}`)
	add("/v1/simulate 400 unknown strategy", "/v1/simulate", `{"config":{"strategy":"bogus"},"jobs":[`+wireSimJob+`]}`)
	add("/v1/simulate 400 bad control", "/v1/simulate",
		`{"config":{"strategy":"Speculative-Restart","tauEst":-5,"tauKill":1},"jobs":[`+wireSimJob+`]}`)

	add("/v1/replay 200 benchmark", "/v1/replay",
		`{"config":{"strategy":"s-resume","seed":3,"nodes":16},"benchmark":`+wireBench+`,"windowSeconds":300}`)
	add("/v1/replay 200 trace", "/v1/replay",
		`{"config":{"strategy":"clone","seed":3},"trace":{"jobs":5,"horizonSeconds":3600,"deadlineRatio":2.5,"seed":11}}`)
	add("/v1/replay 200 jobs", "/v1/replay",
		`{"config":{"strategy":"mantri","seed":5},"jobs":[`+wireSimJob+`,{"tasks":4,"deadline":80,"tmin":10,"beta":1.5,"arrival":50}]}`)
	add("/v1/replay 200 budget_exhausted", "/v1/replay",
		`{"config":{"strategy":"s-resume","seed":3,"nodes":16},"benchmark":`+wireBench+`,"tenant":"small"}`)
	add("/v1/replay 400 no source", "/v1/replay", `{"config":{"strategy":"clone"}}`)
	add("/v1/replay 400 unknown strategy", "/v1/replay", `{"config":{"strategy":"bogus"},"benchmark":`+wireBench+`}`)
	add("/v1/replay 400 unknown benchmark", "/v1/replay", `{"config":{"strategy":"clone"},"benchmark":{"name":"Grep","jobs":5,"tasks":6}}`)
	add("/v1/replay 404 unknown tenant", "/v1/replay", `{"config":{"strategy":"clone"},"benchmark":`+wireBench+`,"tenant":"nobody"}`)

	// The peer-only POST endpoint shares the body path with the rest.
	lease := `{"tenant":"team","holder":"` + wireHolder + `","want":100}`
	cases = append(cases, wireCase{name: "/v1/escrow/lease 200", path: "/v1/escrow/lease", body: lease, escrow: true})
	cases = append(cases, wireCase{name: "/v1/escrow/lease 400 invalid JSON", path: "/v1/escrow/lease", body: `{"tenant" nope}`, escrow: true})
	cases = append(cases, wireCase{name: "/v1/escrow/lease 413", path: "/v1/escrow/lease", body: wireOversize, escrow: true})
	add("/v1/escrow/lease 404 escrow off", "/v1/escrow/lease", lease)

	// Appended with the one body path: bytes after the JSON value are a 400 on
	// every endpoint (at d9d3b30 all but the first and the third of these
	// answered 200).
	trailing := func(path, valid string) { add(path+" 400 trailing bytes", path, valid+" xyz") }
	trailing("/v1/plan", `{"job":`+wireJob+`,"econ":`+wireEcon+`}`)
	trailing("/v1/plan/batch", `{"jobs":`+batchJobs+`,"budget":5000,"econ":`+wireEcon+`}`)
	trailing("/v1/admit", `{"tenant":"team","job":`+wireJob+`}`)
	trailing("/v1/admit/batch", `{"tenant":"team","jobs":[{"job":`+wireJob+`}]}`)
	trailing("/v1/simulate", `{"config":{"strategy":"clone","seed":7},"jobs":[`+wireSimJob+`]}`)
	trailing("/v1/replay", `{"config":{"strategy":"clone","seed":7},"benchmark":`+wireBench+`}`)
	cases = append(cases, wireCase{name: "/v1/escrow/lease 400 trailing bytes", path: "/v1/escrow/lease", body: lease + " xyz", escrow: true})
	return cases
}

// newWireServer boots one golden server: fixed (non-refilling) tenant pools,
// so every budgetRemaining is a pure function of the requests sent.
func newWireServer(t *testing.T, escrow bool) *httptest.Server {
	t.Helper()
	reg, err := tenant.NewRegistry(map[string]tenant.Limits{
		"team":   {Budget: 5000, Theta: 1e-4, UnitPrice: 1},
		"tiny":   {Budget: 1, Theta: 1e-4, UnitPrice: 1},
		"small":  {Budget: 50, Theta: 1e-4, UnitPrice: 1},
		"mid":    {Budget: 455, Theta: 1e-4, UnitPrice: 1},
		"strict": {Budget: 5000, Theta: 1e-4, UnitPrice: 1, RMin: 0.999999999},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Tenants: reg, MaxBodyBytes: wireMaxBody, Escrow: escrow})
	if escrow && leaseHolder(t, s, "team") != wireHolder {
		t.Fatalf("wireHolder is not the member leaseHolder picks for tenant team")
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return ts
}

var wireTraceID = regexp.MustCompile(`"traceId":"[^"]*"`)

func runWireCase(t *testing.T, c wireCase) wireRow {
	t.Helper()
	ts := newWireServer(t, c.escrow)
	var row wireRow
	for i := 0; i < max(c.times, 1); i++ {
		var resp *http.Response
		var err error
		if c.body == "" {
			resp, err = http.Get(ts.URL + c.path)
		} else {
			resp, err = http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		row = wireRow{
			Name:   c.name,
			Status: resp.StatusCode,
			Body:   wireTraceID.ReplaceAllString(string(raw), `"traceId":""`),
		}
	}
	return row
}

func TestWireGolden(t *testing.T) {
	var rows []wireRow
	if data, err := os.ReadFile(wireGoldenPath); err == nil {
		if err := json.Unmarshal(data, &rows); err != nil {
			t.Fatalf("%s: %v", wireGoldenPath, err)
		}
	} else if !*updateWireGolden {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := make(map[string]wireRow, len(rows))
	for _, r := range rows {
		want[r.Name] = r
	}

	added := 0
	for _, c := range wireCases() {
		w, pinned := want[c.name]
		if !pinned && !*updateWireGolden {
			t.Errorf("%s: no golden row (run with -update to add it)", c.name)
			continue
		}
		got := runWireCase(t, c)
		if !pinned {
			rows = append(rows, got)
			added++
			continue
		}
		if got != w {
			t.Errorf("%s: the wire moved\n got %d %s\nwant %d %s", c.name, got.Status, got.Body, w.Status, w.Body)
		}
	}
	if added > 0 {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wireGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("added %d rows to %s", added, wireGoldenPath)
	}
}
