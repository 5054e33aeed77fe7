package hotjson

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"chronos"
	"chronos/api"
)

func mustPlan(t *testing.T) chronos.Plan {
	t.Helper()
	return chronos.Plan{
		Strategy:    chronos.SpeculativeResume,
		R:           2,
		PoCD:        0.999999,
		MachineTime: 1234.5678,
		Cost:        123.45678,
		Utility:     0.87654321,
	}
}

func TestAppendPlanResponseMatchesEncodingJSON(t *testing.T) {
	cases := []PlanResponse{
		{Plan: mustPlan(t), Cached: true},
		{Plan: mustPlan(t), Cached: false},
		{Plan: chronos.Plan{Strategy: chronos.Clone, PoCD: 1e-9, MachineTime: 1e21, Cost: 6.123e-9, Utility: -0.5}},
	}
	for _, c := range cases {
		want, err := json.Marshal(&c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendPlanResponse(nil, &c)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("mismatch:\nwant %s\ngot  %s", want, got)
		}
	}
}

func TestAppendAdmitResponseMatchesEncodingJSON(t *testing.T) {
	plan := mustPlan(t)
	cases := []AdmitResponse{
		{Admitted: true, Tenant: "analytics", Plan: &plan, BudgetRemaining: 57.25},
		{Admitted: false, Tenant: "t<e>n&ant", Reason: "budget_exhausted", BudgetRemaining: 0},
	}
	for _, c := range cases {
		want, err := json.Marshal(&c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendAdmitResponse(nil, &c)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("mismatch:\nwant %s\ngot  %s", want, got)
		}
	}
}

func TestAppendPlanInvalidStrategyErrors(t *testing.T) {
	p := chronos.Plan{Strategy: 0}
	if _, err := json.Marshal(&p); err == nil {
		t.Fatal("encoding/json unexpectedly marshaled invalid strategy")
	}
	if _, err := AppendPlan(nil, &p); err == nil {
		t.Fatal("AppendPlan accepted invalid strategy")
	}
	resp := PlanResponse{Plan: p}
	if _, err := AppendPlanResponse(nil, &resp); err == nil {
		t.Fatal("AppendPlanResponse accepted invalid strategy")
	}
}

func TestAppendReplayEventMatchesEncodingJSON(t *testing.T) {
	r := 3
	pocd := 0.75
	cases := []chronos.ReplayEvent{
		{Kind: "job_planned", Seq: 1, Time: 0.5, Job: &chronos.ReplayJobEvent{ID: 7, Strategy: "Clone", Tasks: 10, Arrival: 0.5, Deadline: 300, R: &r}, TraceID: "abc"},
		{Kind: "job_completed", Seq: 2, Time: 310, Outcome: &chronos.ReplayOutcome{Finish: 290, MetDeadline: true, MachineTime: 123, Cost: 12.3}, PoCD: &pocd},
		{Kind: "window_summary", Seq: 3, Time: 600, Window: &chronos.ReplayWindow{Index: 1, Start: 0, End: 600, Completed: 4, Running: chronos.ReplaySummary{Jobs: 4, Submitted: 6, Met: 3, PoCD: 0.75, MeanMachineTime: 100, MeanCost: 10}}},
		{Kind: "replay_summary", Seq: 9, Time: 9000, Summary: &chronos.ReplaySummary{Jobs: 10, Met: 9, PoCD: 0.9, RHistogram: map[int]int{2: 7, 10: 3, -1: 1, 100: 4}}},
		{Kind: "error", Seq: 4, Time: 12, Error: "boom"},
	}
	for _, ev := range cases {
		want, err := json.Marshal(&ev)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendReplayEvent(nil, &ev)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("mismatch for %s:\nwant %s\ngot  %s", ev.Kind, want, got)
		}
	}
}

func TestDecodePlanRequestSemantics(t *testing.T) {
	body := `{"JOB":{"tasks":5,"DEADLINE":250,"tmin":50,"beta":1.5,"tauEst":60,"tauKill":5,"phiEst":0.4},"econ":{"theta":0.001,"unitPrice":2,"rmin":0.5},"strategy":"clone","Strategy":"best"}`
	var want, got PlanRequest
	if err := strictUnmarshal([]byte(body), &want); err != nil {
		t.Fatal(err)
	}
	if err := DecodePlanRequest([]byte(body), &got, nil); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("mismatch:\nwant %+v\ngot  %+v", want, got)
	}
	if got.Strategy != "best" {
		t.Fatalf("duplicate key should take the last value, got %q", got.Strategy)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	bad := []string{
		``, `{`, `{"job":}`, `[1,2]`, `"s"`, `12`, `true`,
		`{"job":{"tasks":01}}`, `{"job":{"deadline":1.}}`, `{"job":{"deadline":+1}}`,
		`{"job":{}}x`, `{"job":{},}`, `{"strategy":"a` + "\x01" + `"}`,
		`{"job":{"deadline":1e999}}`, `{"job":{"tasks":1.5}}`,
		strings.Repeat("[", 10001), `{"job":{},"tenant":"acme"}`,
	}
	for _, body := range bad {
		var ref PlanRequest
		if err := strictUnmarshal([]byte(body), &ref); err == nil {
			t.Fatalf("encoding/json accepted %q — test expectation wrong", body)
		}
		var v PlanRequest
		if err := DecodePlanRequest([]byte(body), &v, nil); err == nil {
			t.Fatalf("DecodePlanRequest accepted malformed %q", body)
		}
	}
}

// TestDecodeRejectsUnknownKeys: a key the struct does not declare, at any
// depth and whatever its value, fails the decode with exactly the text a
// json.Decoder with DisallowUnknownFields gives, so the serving layer's two
// body paths answer an unknown key alike.
func TestDecodeRejectsUnknownKeys(t *testing.T) {
	for _, tc := range []struct {
		body  string
		admit bool
	}{
		{`{"job":{"tasks":1},"tenant":"acme"}`, false},
		{`{"tenant":null}`, false},
		{`{"strategy":"clone","x":[{"deep":[1,2,{}]}]}`, false},
		{`{"job":{"tasks":1,"deadlines":100}}`, false},
		{`{"econ":{"theta":0.1,"price":1}}`, true},
		{`{"tenant":"acme","budget":5}`, true},
		{`{"tenant":"a\u0062c","t\u00e9nant":"x"}`, true},
	} {
		var ref, got error
		if tc.admit {
			ref = strictUnmarshal([]byte(tc.body), new(AdmitRequest))
			got = DecodeAdmitRequest([]byte(tc.body), new(AdmitRequest), nil)
		} else {
			ref = strictUnmarshal([]byte(tc.body), new(PlanRequest))
			got = DecodePlanRequest([]byte(tc.body), new(PlanRequest), nil)
		}
		if ref == nil || !strings.Contains(ref.Error(), "unknown field") {
			t.Fatalf("%s: encoding/json said %v — test expectation wrong", tc.body, ref)
		}
		if got == nil || got.Error() != ref.Error() {
			t.Errorf("%s: hotjson said %v, want %q", tc.body, got, ref.Error())
		}
	}
}

// TestDecodeZeroAlloc locks in the reason this package exists: decoding the
// hot request shapes allocates nothing (tenants resolve through the
// Interner, strategies through the built-in vocabulary).
func TestDecodeZeroAlloc(t *testing.T) {
	planBody := []byte(`{"job":{"tasks":10,"deadline":100,"tmin":10,"beta":1.5,"tauEst":12,"tauKill":2},"econ":{"theta":0.0001,"unitPrice":1},"strategy":"clone"}`)
	var pr PlanRequest
	if avg := testing.AllocsPerRun(200, func() {
		pr = PlanRequest{}
		if err := DecodePlanRequest(planBody, &pr, nil); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("DecodePlanRequest allocates %.1f times per op", avg)
	}
	admitBody := []byte(`{"tenant":"analytics","job":{"tasks":20,"deadline":300,"tmin":60,"beta":1.2},"strategy":"resume","econ":{"theta":0.001}}`)
	var ar AdmitRequest
	in := testInterner{}
	if avg := testing.AllocsPerRun(200, func() {
		ar = AdmitRequest{}
		if err := DecodeAdmitRequest(admitBody, &ar, in); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("DecodeAdmitRequest allocates %.1f times per op", avg)
	}
	batchBody := []byte(`{"tenant":"analytics","jobs":[` +
		strings.Repeat(`{"job":{"tasks":20,"deadline":300,"tmin":60,"beta":1.2},"strategy":"resume"},`, 15) +
		`{"job":{"tasks":4,"deadline":300,"tmin":60,"beta":1.2}}],"econ":{"theta":0.001}}`)
	var br AdmitBatchRequest
	if err := DecodeAdmitBatchRequest(batchBody, &br, in); err != nil { // grows br.Jobs once
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := DecodeAdmitBatchRequest(batchBody, &br, in); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("DecodeAdmitBatchRequest into a reused request allocates %.1f times per op", avg)
	}
	if ar.Tenant != "analytics" || pr.Strategy != "clone" || br.Tenant != "analytics" || len(br.Jobs) != 16 {
		t.Fatal("decoded values lost")
	}
}

// TestEncodeZeroAlloc: encoding hot responses into a reused buffer
// allocates nothing.
func TestEncodeZeroAlloc(t *testing.T) {
	plan := mustPlan(t)
	resp := PlanResponse{Plan: plan, Cached: true}
	admit := AdmitResponse{Admitted: true, Tenant: "analytics", Plan: &plan, BudgetRemaining: 90}
	batch := AdmitBatchResponse{Tenant: "analytics", Results: make([]api.AdmitBatchResult, 16), Admitted: 8, BudgetRemaining: 90}
	for i := range batch.Results {
		if i%2 == 0 {
			batch.Results[i] = api.AdmitBatchResult{Admitted: true, Plan: &plan}
		} else {
			batch.Results[i] = api.AdmitBatchResult{Reason: "budget_exhausted"}
		}
	}
	buf := make([]byte, 0, 4096)
	if avg := testing.AllocsPerRun(200, func() {
		var err error
		if buf, err = AppendPlanResponse(buf[:0], &resp); err != nil {
			t.Fatal(err)
		}
		if buf, err = AppendAdmitResponse(buf[:0], &admit); err != nil {
			t.Fatal(err)
		}
		if buf, err = AppendAdmitBatchResponse(buf[:0], &batch); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("hot response encode allocates %.1f times per op", avg)
	}
}
