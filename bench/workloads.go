package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"sync"

	"chronos"
)

// stream is one client's deterministic sequence of requests and the oracle
// that judges their answers. The load phase walks it with next alone; the
// verification pass walks a fresh copy with next and check in step, over the
// answers the load phase recorded.
type stream interface {
	// next builds the client's next request into buf and says which replica
	// gets it. ok is false once the stream has run out of operations.
	next(buf []byte) (req []byte, replica int, kind opKind, ok bool)
	// check judges the answer to the operation next returned last.
	check(status int, body []byte) error
}

// workload is one serving traffic mix.
type workload struct {
	name string
	spec fleetSpec
	// warm is sent once, by one client, before anything is measured.
	warm func() stream
	// stream is client c's measured sequence.
	stream func(c int) stream
	// finish runs the checks that span clients, after every answer has been
	// judged.
	finish func() error
	// sample returns n job shapes drawn the way the workload draws them, for
	// the in-process layer timings.
	sample func(n int) []chronos.JobParams
}

// oracle solves every shape in the benchmark process.
func oracle(shapes []chronos.JobParams) ([]chronos.Plan, error) {
	plans := make([]chronos.Plan, len(shapes))
	for i, p := range shapes {
		plan, err := chronos.OptimizeBest(p, planEcon)
		if err != nil {
			return nil, fmt.Errorf("shape %d %+v: %w", i, p, err)
		}
		plans[i] = plan
	}
	return plans, nil
}

type planReply struct {
	Plan   chronos.Plan `json:"plan"`
	Cached bool         `json:"cached"`
}

type admitReply struct {
	Admitted        bool          `json:"admitted"`
	Tenant          string        `json:"tenant"`
	Plan            *chronos.Plan `json:"plan"`
	Reason          string        `json:"reason"`
	BudgetRemaining float64       `json:"budgetRemaining"`
}

type batchReply struct {
	Tenant  string `json:"tenant"`
	Results []struct {
		Admitted bool          `json:"admitted"`
		Plan     *chronos.Plan `json:"plan"`
		Reason   string        `json:"reason"`
	} `json:"results"`
	Admitted int `json:"admitted"`
}

// samePlan is the output check of every unsqueezed answer: strategy and r
// exactly, PoCD to 1e-9.
func samePlan(got, want chronos.Plan) error {
	if got.Strategy != want.Strategy || got.R != want.R || math.Abs(got.PoCD-want.PoCD) > 1e-9 {
		return fmt.Errorf("plan {%v r=%d pocd=%.12g}, oracle says {%v r=%d pocd=%.12g}",
			got.Strategy, got.R, got.PoCD, want.Strategy, want.R, want.PoCD)
	}
	return nil
}

func checkPlanReply(status int, body []byte, want chronos.Plan) (cached bool, err error) {
	if status != 200 {
		return false, fmt.Errorf("status %d: %s", status, body)
	}
	var got planReply
	if err := json.Unmarshal(body, &got); err != nil {
		return false, fmt.Errorf("plan answer %q: %w", body, err)
	}
	return got.Cached, samePlan(got.Plan, want)
}

// --- plan_hot -------------------------------------------------------------

type hotStream struct {
	shapes  []chronos.JobParams
	plans   []chronos.Plan
	pick    func() int
	mustHit bool // measured phase: every answer must come from the cache
	body    []byte
	last    int
}

func (s *hotStream) next(buf []byte) ([]byte, int, opKind, bool) {
	s.last = s.pick()
	s.body = appendPlanBody(s.body[:0], s.shapes[s.last])
	return buildRequest(buf, "POST", "/v1/plan", s.body), 0, opPlan, true
}

func (s *hotStream) check(status int, body []byte) error {
	cached, err := checkPlanReply(status, body, s.plans[s.last])
	if err == nil && s.mustHit && !cached {
		err = fmt.Errorf("shape %d answered cached:false after warm-up", s.last)
	}
	return err
}

// sequential walks the shapes once, in order; the warm-up of every workload.
func sequential(n int) func() int {
	i := -1
	return func() int { i++; return i % n }
}

func newPlanHot(seed uint64) (*workload, error) {
	shapes, err := traceShapes(hotShapes, traceSeed(seed, tagHot))
	if err != nil {
		return nil, err
	}
	plans, err := oracle(shapes)
	if err != nil {
		return nil, err
	}
	zipfPick := func(c int) func() int {
		z := rand.NewZipf(newRand(seed, tagHot, c), zipfExponent, 1, uint64(len(shapes)-1))
		return func() int { return int(z.Uint64()) }
	}
	return &workload{
		name: "plan_hot",
		spec: fleetSpec{replicas: 1},
		warm: func() stream {
			return &limited{stream: &hotStream{shapes: shapes, plans: plans, pick: sequential(len(shapes))}, left: len(shapes)}
		},
		stream: func(c int) stream {
			return &hotStream{shapes: shapes, plans: plans, pick: zipfPick(c), mustHit: true}
		},
		finish: func() error { return nil },
		sample: func(n int) []chronos.JobParams {
			pick := zipfPick(clients) // a stream of its own, not a client's
			out := make([]chronos.JobParams, n)
			for i := range out {
				out[i] = shapes[pick()]
			}
			return out
		},
	}, nil
}

// limited ends a stream after a fixed number of operations.
type limited struct {
	stream
	left int
}

func (l *limited) next(buf []byte) ([]byte, int, opKind, bool) {
	if l.left <= 0 {
		return nil, 0, 0, false
	}
	l.left--
	return l.stream.next(buf)
}

// --- plan_cold ------------------------------------------------------------

// coldWarm is how many of plan_cold's shapes the warm-up spends: enough to
// open the connections and fill the server's pools, a rounding error of its
// cache.
const coldWarm = 256

// coldStream hands out shapes[from], shapes[from+step], ...: every request a
// job no earlier request has asked about.
type coldStream struct {
	shapes     []chronos.JobParams
	from, step int
	body       []byte
	last       int
}

func (s *coldStream) next(buf []byte) ([]byte, int, opKind, bool) {
	if s.from >= len(s.shapes) {
		return nil, 0, 0, false
	}
	s.last = s.from
	s.from += s.step
	s.body = appendPlanBody(s.body[:0], s.shapes[s.last])
	return buildRequest(buf, "POST", "/v1/plan", s.body), 0, opPlan, true
}

func (s *coldStream) check(status int, body []byte) error {
	want, err := chronos.OptimizeBest(s.shapes[s.last], planEcon)
	if err != nil {
		return err
	}
	_, err = checkPlanReply(status, body, want)
	return err
}

// newPlanCold provisions maxOps unique shapes for each of streams streams.
func newPlanCold(seed uint64, maxOps, streams int) (*workload, error) {
	shapes, err := traceShapes(coldWarm+streams*maxOps, traceSeed(seed, tagCold))
	if err != nil {
		return nil, err
	}
	return &workload{
		name: "plan_cold",
		spec: fleetSpec{replicas: 1},
		warm: func() stream { return &coldStream{shapes: shapes[:coldWarm], step: 1} },
		stream: func(c int) stream {
			return &coldStream{shapes: shapes, from: coldWarm + c, step: streams}
		},
		finish: func() error { return nil },
		sample: func(n int) []chronos.JobParams {
			out := make([]chronos.JobParams, n)
			for i := range out {
				out[i] = shapes[i%len(shapes)]
			}
			return out
		},
	}, nil
}

// --- fleet_admit ----------------------------------------------------------

// fleetChecks is the state the fleet_admit checks share across clients.
type fleetChecks struct {
	mu      sync.Mutex
	budgets []float64 // per tight tenant
	spent   []float64 // machine time admitted, per tight tenant
	// seen is the first plan answer per shape; every later one, from
	// whichever replica, must equal it byte for byte.
	seen map[int][]byte
	// tight admits by outcome, for the report.
	full, squeezed, refused int
}

type fleetStream struct {
	shapes []chronos.JobParams
	plans  []chronos.Plan
	rng    *rand.Rand
	client int
	k      int // operations handed out
	limit  int
	checks *fleetChecks
	body   []byte

	kind   opKind
	picked [batchJobs]int // shape indices of the last operation
	tenant int            // tight tenant of the last operation
}

func tightName(i int) string { return "tight-" + strconv.Itoa(i) }

// draw advances the stream by one operation without building a request; the
// budget sizing walks streams with it.
func (s *fleetStream) draw() bool {
	if s.k >= s.limit {
		return false
	}
	s.kind = fleetPattern[s.k%len(fleetPattern)]
	s.tenant = s.k / tightBlock
	n := 1
	if s.kind == opAdmitBatch {
		n = batchJobs
	}
	for i := 0; i < n; i++ {
		s.picked[i] = s.rng.IntN(len(s.shapes))
	}
	s.k++
	return true
}

func (s *fleetStream) next(buf []byte) ([]byte, int, opKind, bool) {
	if !s.draw() {
		return nil, 0, 0, false
	}
	// Round-robin over the replicas, client c starting c steps in.
	replica := (s.k - 1 + s.client) % fleetSize
	path := "/v1/admit"
	job := s.shapes[s.picked[0]]
	switch s.kind {
	case opPlan:
		path = "/v1/plan"
		s.body = appendPlanBody(s.body[:0], job)
	case opAdmitDeep:
		s.body = appendAdmitBody(s.body[:0], "deep", job)
	case opAdmitTight:
		s.body = appendAdmitBody(s.body[:0], tightName(s.tenant), job)
	case opAdmitBatch:
		path = "/v1/admit/batch"
		var jobs [batchJobs]chronos.JobParams
		for i, idx := range s.picked {
			jobs[i] = s.shapes[idx]
		}
		s.body = appendBatchBody(s.body[:0], "deep", jobs[:])
	}
	return buildRequest(buf, "POST", path, s.body), replica, s.kind, true
}

func (s *fleetStream) check(status int, body []byte) error {
	shape := s.picked[0]
	want := s.plans[shape]
	switch s.kind {
	case opPlan:
		if _, err := checkPlanReply(status, body, want); err != nil {
			return err
		}
		s.checks.mu.Lock()
		defer s.checks.mu.Unlock()
		if first, ok := s.checks.seen[shape]; !ok {
			s.checks.seen[shape] = bytes.Clone(body)
		} else if !bytes.Equal(first, body) {
			return fmt.Errorf("shape %d: plan bytes differ between answers:\n%s\n%s", shape, first, body)
		}
		return nil
	case opAdmitBatch:
		if status != 200 {
			return fmt.Errorf("status %d: %s", status, body)
		}
		var got batchReply
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("batch answer: %w", err)
		}
		if len(got.Results) != batchJobs {
			return fmt.Errorf("batch answered %d results, want %d", len(got.Results), batchJobs)
		}
		for i, r := range got.Results {
			if !r.Admitted || r.Plan == nil {
				return fmt.Errorf("batch job %d for deep refused: %s", i, r.Reason)
			}
			if err := samePlan(*r.Plan, s.plans[s.picked[i]]); err != nil {
				return fmt.Errorf("batch job %d: %w", i, err)
			}
		}
		return nil
	}
	if status != 200 {
		return fmt.Errorf("status %d: %s", status, body)
	}
	var got admitReply
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("admit answer: %w", err)
	}
	if s.kind == opAdmitDeep {
		if !got.Admitted || got.Plan == nil {
			return fmt.Errorf("deep admit refused: %s", got.Reason)
		}
		return samePlan(*got.Plan, want)
	}
	return s.checks.tight(s.tenant, s.shapes[shape], want, got)
}

// tight judges one answer for a tight tenant: refused on budget grounds, or
// admitted with the oracle's plan, or admitted with a cheaper plan that the
// closed-form models confirm.
func (fc *fleetChecks) tight(tenant int, job chronos.JobParams, want chronos.Plan, got admitReply) error {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if !got.Admitted {
		if got.Reason != "budget_exhausted" {
			return fmt.Errorf("tight admit refused for %q, want budget_exhausted", got.Reason)
		}
		fc.refused++
		return nil
	}
	if got.Plan == nil {
		return fmt.Errorf("tight admit accepted without a plan")
	}
	plan := *got.Plan
	fc.spent[tenant] += plan.MachineTime
	if plan.MachineTime >= want.MachineTime {
		fc.full++
		return samePlan(plan, want)
	}
	fc.squeezed++
	pocd, err := chronos.PoCD(plan.Strategy, job, plan.R)
	if err != nil {
		return err
	}
	mt, err := chronos.ExpectedMachineTime(plan.Strategy, job, plan.R)
	if err != nil {
		return err
	}
	if math.Abs(pocd-plan.PoCD) > 1e-9 || math.Abs(mt-plan.MachineTime) > 1e-9*mt {
		return fmt.Errorf("squeezed plan {%v r=%d pocd=%.12g mt=%.12g}, models say pocd=%.12g mt=%.12g",
			plan.Strategy, plan.R, plan.PoCD, plan.MachineTime, pocd, mt)
	}
	return nil
}

// budgetSlack absorbs the escrow lease's fixed-point rounding (one
// micro-machine-second per debit).
const budgetSlack = 1e-2

// exact is the fleet-exactness check: no tight tenant was granted more
// machine time than its budget, summed over all three replicas.
func (fc *fleetChecks) exact() error {
	for i, spent := range fc.spent {
		if spent > fc.budgets[i]+budgetSlack {
			return fmt.Errorf("tenant %s admitted %.6f machine-seconds, budget %.6f", tightName(i), spent, fc.budgets[i])
		}
	}
	return nil
}

// newFleetAdmit provisions maxOps operations per client, rounded up to whole
// tight-tenant blocks.
func newFleetAdmit(seed uint64, maxOps int) (*workload, error) {
	shapes, err := traceShapes(fleetShapes, traceSeed(seed, tagFleet))
	if err != nil {
		return nil, err
	}
	plans, err := oracle(shapes)
	if err != nil {
		return nil, err
	}
	blocks := (maxOps + tightBlock - 1) / tightBlock
	checks := &fleetChecks{
		budgets: make([]float64, blocks),
		spent:   make([]float64, blocks),
		seen:    map[int][]byte{},
	}
	newStream := func(c int) *fleetStream {
		return &fleetStream{
			shapes: shapes, plans: plans, rng: newRand(seed, tagFleet, c),
			client: c, limit: blocks * tightBlock, checks: checks,
		}
	}
	// Each tight tenant gets half the machine time its block of admits
	// would take unsqueezed, so about half its demand is squeezed or
	// refused whatever the run length.
	for c := 0; c < clients; c++ {
		s := newStream(c)
		for s.draw() {
			if s.kind == opAdmitTight {
				checks.budgets[s.tenant] += plans[s.picked[0]].MachineTime / 2
			}
		}
	}
	type pool struct {
		Name   string  `json:"name"`
		Budget float64 `json:"budget"`
	}
	// deep never refuses. 1e12 and not more: see README "first findings".
	pools := []pool{{"deep", 1e12}}
	for i, b := range checks.budgets {
		pools = append(pools, pool{tightName(i), b})
	}
	tenants, err := json.Marshal(map[string][]pool{"tenants": pools})
	if err != nil {
		return nil, err
	}
	return &workload{
		name: "fleet_admit",
		spec: fleetSpec{replicas: fleetSize, tenants: tenants, escrow: true},
		warm: func() stream { return &fleetWarm{shapes: shapes, plans: plans} },
		stream: func(c int) stream {
			return newStream(c)
		},
		finish: checks.exact,
		sample: func(n int) []chronos.JobParams {
			rng := newRand(seed, tagFleet, clients)
			out := make([]chronos.JobParams, n)
			for i := range out {
				out[i] = shapes[rng.IntN(len(shapes))]
			}
			return out
		},
	}, nil
}

// fleetWarm plans every shape once, round-robin over the replicas (so each
// key's owner holds it), then admits one deep job on each replica (so each
// holds its escrow lease).
type fleetWarm struct {
	shapes []chronos.JobParams
	plans  []chronos.Plan
	k      int
	body   []byte
}

func (s *fleetWarm) next(buf []byte) ([]byte, int, opKind, bool) {
	k := s.k
	s.k++
	switch {
	case k < len(s.shapes):
		s.body = appendPlanBody(s.body[:0], s.shapes[k])
		return buildRequest(buf, "POST", "/v1/plan", s.body), k % fleetSize, opPlan, true
	case k < len(s.shapes)+fleetSize:
		s.body = appendAdmitBody(s.body[:0], "deep", s.shapes[0])
		return buildRequest(buf, "POST", "/v1/admit", s.body), k - len(s.shapes), opAdmitDeep, true
	}
	return nil, 0, 0, false
}

func (s *fleetWarm) check(status int, body []byte) error {
	k := s.k - 1
	if k < len(s.shapes) {
		_, err := checkPlanReply(status, body, s.plans[k])
		return err
	}
	var got admitReply
	if err := json.Unmarshal(body, &got); err != nil || status != 200 {
		return fmt.Errorf("warm-up admit: status %d: %s", status, body)
	}
	if !got.Admitted || got.Plan == nil {
		return fmt.Errorf("warm-up deep admit refused: %s", got.Reason)
	}
	return samePlan(*got.Plan, s.plans[0])
}
