package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"chronos"
	"chronos/internal/plankey"
	"chronos/internal/tenant"
)

// These tests start no chronosd: they pin the generators, the parsers and
// the output checks, so a benchmark edit that changes what is sent or what
// is accepted shows up here first.

func testWorkloads(t *testing.T, seed uint64) []*workload {
	t.Helper()
	hot, err := newPlanHot(seed)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := newPlanCold(seed, 3000, clients+2)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := newFleetAdmit(seed, 2*tightBlock)
	if err != nil {
		t.Fatal(err)
	}
	return []*workload{hot, cold, fleet}
}

// digest hashes the warm-up and the first n requests of every client.
func digest(wl *workload, n int) [32]byte {
	h := sha256.New()
	walk := func(s stream, n int) {
		for i := 0; i < n; i++ {
			req, replica, kind, ok := s.next(nil)
			if !ok {
				return
			}
			fmt.Fprintf(h, "%d %d ", replica, kind)
			h.Write(req)
		}
	}
	walk(wl.warm(), 1<<20)
	for c := 0; c < clients+2; c++ {
		walk(wl.stream(c), n)
	}
	h.Write(wl.spec.tenants)
	return [32]byte(h.Sum(nil))
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	a, b, other := testWorkloads(t, 7), testWorkloads(t, 7), testWorkloads(t, 8)
	for i, wl := range a {
		if digest(wl, 2500) != digest(b[i], 2500) {
			t.Errorf("%s: same seed, different requests", wl.name)
		}
		if digest(wl, 2500) == digest(other[i], 2500) {
			t.Errorf("%s: different seed, same requests", wl.name)
		}
	}
	if !bytes.Equal(replayStream(7, 4).body(), replayStream(7, 4).body()) ||
		bytes.Equal(replayStream(7, 4).body(), replayStream(8, 4).body()) {
		t.Error("replay_stream bodies do not follow the seed")
	}
	p, q, r := pacedSchedule(7, pacedRate, time.Second), pacedSchedule(7, pacedRate, time.Second), pacedSchedule(8, pacedRate, time.Second)
	if fmt.Sprint(p) != fmt.Sprint(q) || fmt.Sprint(p) == fmt.Sprint(r) {
		t.Error("paced schedule does not follow the seed")
	}
	if n := len(p); n < 1800 || n > 2200 {
		t.Errorf("paced schedule has %d arrivals in a second, want about %v", n, pacedRate)
	}
}

// requestJob parses the job back out of a request.
func requestJob(t *testing.T, req []byte) (path string, jobs []chronos.JobParams, tenantName string) {
	t.Helper()
	head, body, ok := bytes.Cut(req, []byte("\r\n\r\n"))
	if !ok {
		t.Fatalf("request has no body: %q", req)
	}
	path = strings.Fields(string(head))[1]
	var v struct {
		Tenant string             `json:"tenant"`
		Job    *chronos.JobParams `json:"job"`
		Jobs   []struct {
			Job chronos.JobParams `json:"job"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("body %q: %v", body, err)
	}
	if want := fmt.Sprintf("Content-Length: %d", len(body)); !bytes.Contains(head, []byte(want)) {
		t.Fatalf("head %q lacks %q", head, want)
	}
	if v.Job != nil {
		jobs = append(jobs, *v.Job)
	}
	for _, j := range v.Jobs {
		jobs = append(jobs, j.Job)
	}
	return path, jobs, v.Tenant
}

func TestPlanColdKeysAreUnique(t *testing.T) {
	cold, err := newPlanCold(3, 4000, clients+2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	walk := func(s stream) {
		for {
			req, _, _, ok := s.next(nil)
			if !ok {
				return
			}
			_, jobs, _ := requestJob(t, req)
			key := plankey.Key("", jobs[0], planEcon)
			if seen[key] {
				t.Fatalf("plan key %s sent twice", key)
			}
			seen[key] = true
		}
	}
	walk(cold.warm())
	for c := 0; c < clients+2; c++ {
		walk(cold.stream(c))
	}
	if want := coldWarm + (clients+2)*4000; len(seen) < want*99/100 {
		t.Errorf("only %d unique keys of %d provisioned", len(seen), want)
	}
}

func TestPlanHotShapesFitTheCache(t *testing.T) {
	hot, err := newPlanHot(5)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	s := hot.stream(0)
	for i := 0; i < 50000; i++ {
		req, _, _, _ := s.next(nil)
		_, jobs, _ := requestJob(t, req)
		seen[plankey.Key("", jobs[0], planEcon)] = true
	}
	if len(seen) > hotShapes || len(seen) < hotShapes/2 {
		t.Errorf("50000 Zipf draws touched %d shapes, want most of %d and no more", len(seen), hotShapes)
	}
}

func TestFleetPatternAndBudgets(t *testing.T) {
	count := map[opKind]int{}
	for _, k := range fleetPattern {
		count[k]++
	}
	if count[opAdmitDeep] != 10 || count[opAdmitTight] != 2 || count[opPlan] != 3 || count[opAdmitBatch] != 1 {
		t.Fatalf("pattern mix %v, want 10 deep, 2 tight, 3 plan, 1 batch", count)
	}
	fleet, err := newFleetAdmit(9, 2*tightBlock)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := tenant.Parse(fleet.spec.tenants)
	if err != nil {
		t.Fatalf("tenants file: %v", err)
	}
	if reg.Len() != 3 || reg.Get("deep").Limits().Budget != 1e12 {
		t.Fatalf("want deep at 1e12 and two tight tenants, have %d pools", reg.Len())
	}
	demand := map[string]float64{}
	for c := 0; c < clients; c++ {
		s := fleet.stream(c)
		for k := 0; ; k++ {
			req, replica, kind, ok := s.next(nil)
			if !ok {
				if k != 2*tightBlock {
					t.Fatalf("client %d stream ended after %d ops, want %d", c, k, 2*tightBlock)
				}
				break
			}
			if kind != fleetPattern[k%16] || replica != (k+c)%fleetSize {
				t.Fatalf("client %d op %d: kind %v on replica %d", c, k, kindNames[kind], replica)
			}
			path, jobs, tenantName := requestJob(t, req)
			switch kind {
			case opPlan:
				if path != "/v1/plan" || tenantName != "" || len(jobs) != 1 {
					t.Fatalf("plan op sent %s tenant %q", path, tenantName)
				}
			case opAdmitBatch:
				if path != "/v1/admit/batch" || tenantName != "deep" || len(jobs) != batchJobs {
					t.Fatalf("batch op sent %s tenant %q with %d jobs", path, tenantName, len(jobs))
				}
			case opAdmitDeep:
				if path != "/v1/admit" || tenantName != "deep" {
					t.Fatalf("deep admit sent %s tenant %q", path, tenantName)
				}
			case opAdmitTight:
				if want := tightName(k / tightBlock); path != "/v1/admit" || tenantName != want {
					t.Fatalf("tight admit at op %d sent %s tenant %q, want %q", k, path, tenantName, want)
				}
				plan, err := chronos.OptimizeBest(jobs[0], planEcon)
				if err != nil {
					t.Fatal(err)
				}
				demand[tenantName] += plan.MachineTime
			}
		}
	}
	for name, d := range demand {
		if b := reg.Get(name).Limits().Budget; math.Abs(b-d/2) > 1e-6*d {
			t.Errorf("%s: budget %.3f, want half its demand of %.3f", name, b, d)
		}
	}
}

func TestChecksRejectBrokenAnswers(t *testing.T) {
	hot, err := newPlanHot(1)
	if err != nil {
		t.Fatal(err)
	}
	s := hot.stream(0).(*hotStream)
	s.next(nil)
	good := s.plans[s.last]
	answer := func(p chronos.Plan, cached bool) []byte {
		b, _ := json.Marshal(planReply{Plan: p, Cached: cached})
		return b
	}
	if err := s.check(200, answer(good, true)); err != nil {
		t.Fatalf("the oracle's own plan is rejected: %v", err)
	}
	for name, body := range map[string][]byte{
		"other r":       answer(chronos.Plan{Strategy: good.Strategy, R: good.R + 1, PoCD: good.PoCD}, true),
		"pocd off 1e-8": answer(chronos.Plan{Strategy: good.Strategy, R: good.R, PoCD: good.PoCD - 1e-8}, true),
		"not cached":    answer(good, false),
		"not json":      []byte("<html>"),
	} {
		if s.check(200, body) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if s.check(500, answer(good, true)) == nil {
		t.Error("status 500 accepted")
	}

	job := s.shapes[s.last]
	fc := &fleetChecks{budgets: []float64{good.MachineTime * 1.5}, spent: []float64{0}, seen: map[int][]byte{}}
	admit := admitReply{Admitted: true, Plan: &good}
	if err := fc.tight(0, job, good, admit); err != nil {
		t.Fatal(err)
	}
	if err := fc.exact(); err != nil {
		t.Fatalf("one admit within budget: %v", err)
	}
	if err := fc.tight(0, job, good, admit); err != nil {
		t.Fatal(err)
	}
	if fc.exact() == nil {
		t.Error("two admits worth 2x against a budget of 1.5x pass the fleet-exactness check")
	}
	if fc.tight(0, job, good, admitReply{Reason: "infeasible_deadline"}) == nil {
		t.Error("a tight refusal for another reason than the budget is accepted")
	}
	if good.R > 0 {
		// A cheaper plan must be what the models say it is.
		fake := good
		fake.R, fake.MachineTime = good.R-1, good.MachineTime*0.9
		if fc.tight(0, job, good, admitReply{Admitted: true, Plan: &fake}) == nil {
			t.Error("a squeezed plan with invented numbers is accepted")
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	v := make([]int64, 100)
	for i := range v {
		v[i] = int64(i + 1)
	}
	for p, want := range map[float64]int64{50: 50, 99: 99, 100: 100, 1: 1} {
		if got := percentile(v, p); got != want {
			t.Errorf("p%v of 1..100 = %d, want %d", p, got, want)
		}
	}
	if percentile(nil, 50) != 0 || percentile([]int64{7}, 99) != 7 {
		t.Error("degenerate samples")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of [1 2 4] = %v, %v; Python gives 1, 4", q1, q3)
	}
	if median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Error("median")
	}
}

// A slice's figures come from its own bursts: the rate from the time spent
// on the workload and not on the yardstick, the host's speed from the
// yardstick's bursts in that slice alone, and the gated figure is the one
// scaled by the other.
func TestWindowsScaleByTheYardstick(t *testing.T) {
	ms := time.Millisecond
	rec := &recorder{}
	// Slice 0 (0-1 s): 4 singles and a batch; slice 1 (1-2 s): 2 singles;
	// one answer after the last mark, which belongs to no slice.
	for _, r := range []struct {
		start, lat time.Duration
		kind       opKind
	}{
		{0, 10 * ms, opPlan}, {100 * ms, 20 * ms, opPlan}, {200 * ms, 30 * ms, opAdmitDeep},
		{300 * ms, 40 * ms, opPlan}, {400 * ms, 500 * ms, opAdmitBatch},
		{1100 * ms, 50 * ms, opPlan}, {1200 * ms, 70 * ms, opPlan},
		{1990 * ms, 20 * ms, opPlan},
	} {
		rec.add(r.kind, 0, 200, r.lat, nil, r.start, r.start)
	}
	half := time.Duration(float64(time.Second) * 17500 / yardstickNominal) // 17 500 answers take this long at half speed
	ph := &phase{recs: []*recorder{rec}, marks: []mark{
		{},
		{at: 1000 * ms, busy: 800 * ms, ticks: 50, peakKB: 1024, refOps: 7000, refBusy: 200 * ms, refP99: int64(yardstickNominalP99)},
		{at: 2000 * ms, busy: 1600 * ms, ticks: 150, peakKB: 2048, refOps: 7000 + 17500, refBusy: 200*ms + 2*half, refP99: 2 * int64(yardstickNominalP99)},
	}}
	wins := ph.windows()
	if len(wins) != 2 {
		t.Fatalf("%d slices, want 2", len(wins))
	}
	w := wins[0]
	if w.ops != 5 || w.n != 4 || w.busy != 800*ms || w.ticks != 50 || w.rssKB != 1024 || w.p50 != int64(20*ms) || w.p99 != int64(40*ms) {
		t.Errorf("slice 0: %+v", w)
	}
	if math.Abs(w.speed-1) > 1e-9 || math.Abs(w.tail-1) > 1e-9 {
		t.Errorf("slice 0: speed %v, tail %v; the yardstick ran at its nominal figures", w.speed, w.tail)
	}
	w = wins[1]
	if w.ops != 2 || w.n != 2 || w.ticks != 100 || w.rssKB != 2048 || w.p50 != int64(50*ms) || w.p99 != int64(70*ms) {
		t.Errorf("slice 1: %+v", w)
	}
	if math.Abs(w.speed-0.5) > 1e-6 || math.Abs(w.tail-0.5) > 1e-9 {
		t.Errorf("slice 1: speed %v, tail %v; the yardstick ran at half its nominal figures", w.speed, w.tail)
	}

	res := &result{Metrics: map[string]metric{}}
	if err := res.gated([]float64{3, 1, 2}, []window{wins[1], wins[1], wins[1]}); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"setup_s":              2,
		"sat_ops_s":            2 / 0.8 / 0.5,               // 2 answers in 0.8 s on a host at half speed
		"sat_p50_us":           50e3 * 0.5,                  // and its latencies would have been half as long
		"sat_p99_us":           70e3 * 0.5,                  // its tail scaled by the yardstick's tail
		"server_cpu_us_per_op": 100.0 / 100 * 1e6 / 2 * 0.5, // 100 ticks of 10 ms for 2 answers
		"server_peak_rss_mb":   2,                           // memory is not scaled
	} {
		if got := res.Metrics[name].Value; math.Abs(got-want) > 1e-6*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if err := res.gated(nil, wins); err == nil {
		t.Error("two slices are accepted as enough for medians")
	}
}

func TestReplayWindowsAreRotations(t *testing.T) {
	s := time.Second
	var streams []replayResult
	for i, wall := range []time.Duration{2 * s, 1 * s, 1 * s, 4 * s, 2 * s, 3 * s, 9 * s} {
		streams = append(streams, replayResult{wall: wall, settled: 500, after: usage{cpuTicks: uint64(100 * (i + 1)), peakRSSkB: uint64(10 * (i + 1))}, refOps: 3500, refBusy: s / 5})
	}
	wins := replayWindows(streams, 40)
	if len(wins) != 2 { // the seventh stream starts a rotation that never ends
		t.Fatalf("%d rotations, want 2", len(wins))
	}
	if w := wins[0]; w.ops != 1500 || w.busy != 4*s || w.ticks != 260 || w.rssKB != 30 || w.p50 != int64(4*s/3) || w.p99 != int64(2*s) {
		t.Errorf("rotation 0: %+v", w)
	}
	if w := wins[1]; w.ops != 1500 || w.busy != 9*s || w.ticks != 300 || w.rssKB != 60 || w.p50 != int64(3*s) || w.p99 != int64(4*s) {
		t.Errorf("rotation 1: %+v", w)
	}
	if w := wins[1]; math.Abs(w.speed-0.5) > 1e-9 || w.tail != w.speed {
		t.Errorf("rotation 1: speed %v, tail %v; 3 x 3500 answers in 3 x 0.2 s is half the nominal rate", w.speed, w.tail)
	}
}

func TestProcParsers(t *testing.T) {
	stat := "4242 (chronosd (v2) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 1234 567 0 0 20 0 9 0 100 200 300"
	if ticks, err := procTimes(stat); err != nil || ticks != 1234+567 {
		t.Errorf("procTimes = %d, %v; want 1801", ticks, err)
	}
	if _, err := procTimes("4242 chronosd S"); err == nil {
		t.Error("stat without a command field accepted")
	}
	status := "Name:\tchronosd\nVmPeak:\t  900000 kB\nVmHWM:\t   15612 kB\nVmRSS:\t   15000 kB\n"
	if kb, err := procPeakRSS(status); err != nil || kb != 15612 {
		t.Errorf("procPeakRSS = %d, %v; want 15612", kb, err)
	}
	if _, err := procPeakRSS("Name:\tx\n"); err == nil {
		t.Error("status without VmHWM accepted")
	}
	// The live files of this process parse too.
	for _, f := range []struct {
		path  string
		parse func(string) (uint64, error)
	}{{"/proc/self/stat", procTimes}, {"/proc/self/status", procPeakRSS}} {
		data, err := os.ReadFile(f.path)
		if err != nil {
			t.Skip(err)
		}
		if _, err := f.parse(string(data)); err != nil {
			t.Errorf("%s: %v", f.path, err)
		}
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP chronosd_requests_total Requests served.
# TYPE chronosd_requests_total counter
chronosd_requests_total{endpoint="/v1/plan",code="200"} 41
chronosd_requests_total{endpoint="/v1/plan",code="400"} 1
chronosd_requests_total{endpoint="/v1/admit",code="200"} 7
chronosd_stage_seconds_sum{stage="solve"} 1.5e-05
chronosd_tenant_admits_total{tenant="a \"quoted\", name"} 3
chronosd_plan_cache_hits_total 12
`
	samples, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	s := scrape(samples)
	for _, c := range []struct {
		got, want float64
	}{
		{s.sum("chronosd_requests_total"), 49},
		{s.sum("chronosd_requests_total", "endpoint", "/v1/plan"), 42},
		{s.sum("chronosd_requests_total", "endpoint", "/v1/plan", "code", "200"), 41},
		{s.sum("chronosd_stage_seconds_sum", "stage", "solve"), 1.5e-05},
		{s.sum("chronosd_tenant_admits_total", "tenant", `a "quoted", name`), 3},
		{s.sum("chronosd_plan_cache_hits_total"), 12},
		{s.sum("chronosd_absent_total"), 0},
	} {
		if c.got != c.want {
			t.Errorf("sum = %v, want %v", c.got, c.want)
		}
	}
	if _, err := parseProm(strings.NewReader("broken{a=1} 2\n")); err == nil {
		t.Error("unquoted label value accepted")
	}
}

func TestHTTPClient(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/fixed":
			w.Header().Set("Content-Length", "5")
			w.Write([]byte("hello"))
		case "/lines":
			for i := 0; i < 3; i++ {
				fmt.Fprintf(w, "{\"seq\":%d}\n", i)
				w.(http.Flusher).Flush()
			}
		default:
			http.Error(w, "nope", http.StatusTeapot)
		}
	}))
	defer srv.Close()
	c, err := dial(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	// The same connection serves every exchange, so each answer must be
	// consumed to its last byte.
	status, body, err := c.do(buildRequest(nil, "POST", "/fixed", []byte("{}")), []byte("kept:"))
	if err != nil || status != 200 || string(body) != "kept:hello" {
		t.Fatalf("fixed: %d %q %v", status, body, err)
	}
	var lines []string
	status, err = c.stream(buildRequest(nil, "POST", "/lines", []byte("{}")), time.Second, func(l []byte) error {
		lines = append(lines, string(l))
		return nil
	})
	if err != nil || status != 200 || strings.Join(lines, "|") != `{"seq":0}|{"seq":1}|{"seq":2}` {
		t.Fatalf("lines: %d %q %v", status, lines, err)
	}
	status, body, err = c.do(buildRequest(nil, "GET", "/lines", nil), nil)
	if err != nil || status != 200 || strings.Count(string(body), "\n") != 3 {
		t.Fatalf("chunked body: %d %q %v", status, body, err)
	}
	status, body, err = c.do(buildRequest(nil, "GET", "/missing", nil), nil)
	if err != nil || status != http.StatusTeapot || !strings.Contains(string(body), "nope") {
		t.Fatalf("error answer: %d %q %v", status, body, err)
	}
}

// TestBenchmarkJSONMatchesCode keeps the contract file and the program in
// step: same workloads, same metric names, units, directions and bounds.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		t.Errorf("workloads %v, the program runs %v", names, workloadNames)
	}
	compare := func(kind string, file []entry, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(file), len(code))
			return
		}
		for i, f := range file {
			if c := code[i]; f.Name != c.name || f.Unit != c.unit || f.Better != c.better || f.Bound != c.bound {
				t.Errorf("%s[%d]: file has %+v, program has %+v", kind, i, f, c)
			}
		}
	}
	compare("end_to_end", file.EndToEnd, endToEnd)
	compare("per_layer", file.PerLayer, perLayer)
}
