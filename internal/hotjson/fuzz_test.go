package hotjson

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"chronos/internal/jsonfloat"
)

// The fuzz targets hold hotjson to its contract: the request decoders
// accept exactly what encoding/json accepts and produce the same struct,
// and the response/event encoders are byte-identical to json.Marshal.
// encoding/json is the other half of each oracle: json.Unmarshal turns the
// fuzz input into the value an encoder target is checked on. Seeds mirror
// testdata/fuzz committed for the root package's FuzzPlanRequestJSON plus
// shapes that exercise every field kind (pointers, maps, escapes, folds,
// duplicate keys).

// strictUnmarshal is the decode oracle: json.Unmarshal's rules and error
// texts for the bytes (exactly one JSON value), then a json.Decoder with
// DisallowUnknownFields for the value — the serving layer's reflection body
// path.
func strictUnmarshal(data []byte, v any) error {
	if !json.Valid(data) {
		return json.Unmarshal(data, v)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// checkDecode decodes data with both decoders — plain and through an
// Interner, which must not change the value — and fails on any
// success/failure or value disagreement with a strict encoding/json decode.
func checkDecode[T any](t *testing.T, data []byte, hot func([]byte, *T, Interner) error) {
	t.Helper()
	var ref T
	refErr := strictUnmarshal(data, &ref)
	for _, in := range []Interner{nil, testInterner{}} {
		var got T
		hotErr := hot(data, &got, in)
		if (refErr == nil) != (hotErr == nil) {
			t.Fatalf("decode disagreement on %q:\nencoding/json: %v\nhotjson: %v", data, refErr, hotErr)
		}
		if refErr == nil && !reflect.DeepEqual(ref, got) {
			t.Fatalf("decoded values differ on %q:\nencoding/json: %+v\nhotjson: %+v", data, ref, got)
		}
	}
}

// checkEncode turns data into a T with json.Unmarshal (inputs it rejects
// are skipped), marshals that value with both encoders and fails on any
// disagreement.
func checkEncode[T any](t *testing.T, data []byte, hot func([]byte, *T) ([]byte, error)) {
	t.Helper()
	v := new(T)
	if json.Unmarshal(data, v) != nil {
		return
	}
	want, refErr := json.Marshal(v)
	got, hotErr := hot(nil, v)
	if (refErr == nil) != (hotErr == nil) {
		t.Fatalf("encode disagreement on %+v:\nencoding/json: %v\nhotjson: %v", v, refErr, hotErr)
	}
	if refErr != nil {
		return
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("encoded bytes differ on %+v:\nencoding/json: %s\nhotjson: %s", v, want, got)
	}
}

func FuzzPlanRequest(f *testing.F) {
	f.Add([]byte(`{"job":{"tasks":10,"deadline":100,"tmin":10,"beta":1.5},"econ":{"theta":0.0001,"unitPrice":1},"strategy":"clone"}`))
	f.Add([]byte(`{"job":{"deadline":1e308,"beta":-1e308}}`))
	f.Add([]byte(`{"JOB":{"Tasks":3},"tenant":"acme","strategy":"best","x":[{"deep":[1,2,{}]}]}`))
	f.Add([]byte(`{"job":null,"econ":{"rmin":0.25,"theta":1e-7},"tenant":"a\u0062c"}`))
	f.Add([]byte(` {"job":{"tasks":1,"tasks":2}} `))
	f.Add([]byte(`{"job":{"tasks":1},"econ":{"Theta":1e-4,"unitprice":1},"STRATEGY":"clone"}`))
	f.Fuzz(func(t *testing.T, data []byte) { checkDecode(t, data, DecodePlanRequest) })
}

func FuzzAdmitRequest(f *testing.F) {
	f.Add([]byte(`{"tenant":"analytics","job":{"tasks":20,"deadline":300,"tmin":60,"beta":1.2},"strategy":"resume","econ":{"theta":0.001}}`))
	f.Add([]byte(`{"tenant":"","job":{},"econ":null}`))
	f.Add([]byte(`{"Tenant":"fold","job":{"phiEst":0.5},"unknown":{"a":"b"}}`))
	f.Fuzz(func(t *testing.T, data []byte) { checkDecode(t, data, DecodeAdmitRequest) })
}

func FuzzAdmitBatchRequest(f *testing.F) {
	f.Add([]byte(`{"tenant":"analytics","jobs":[{"job":{"tasks":20,"deadline":300,"tmin":60,"beta":1.2},"strategy":"resume"},{"job":{"tasks":4}}],"econ":{"theta":0.001}}`))
	f.Add([]byte(`{"jobs":[{"job":{"tasks":1}} ,]}`))
	f.Add([]byte(`{"jobs":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data, DecodeAdmitBatchRequest)
		// The serving layer decodes into a pooled request that held a longer
		// batch before: that must decode data to the zero request's value.
		var fresh, reused AdmitBatchRequest
		freshErr := DecodeAdmitBatchRequest(data, &fresh, nil)
		if err := DecodeAdmitBatchRequest(reusedBatch, &reused, nil); err != nil {
			t.Fatal(err)
		}
		if err := DecodeAdmitBatchRequest(data, &reused, nil); (err == nil) != (freshErr == nil) {
			t.Fatalf("reused request on %q: error %v, fresh %v", data, err, freshErr)
		} else if err == nil && !reflect.DeepEqual(fresh, reused) {
			t.Fatalf("reused request on %q:\nfresh  %+v\nreused %+v", data, fresh, reused)
		}
	})
}

// reusedBatch fills every field of eight jobs, which a decode into the same
// request must not carry over.
var reusedBatch = []byte(`{"tenant":"acme","econ":{"theta":1,"unitPrice":2,"rmin":0.5},"jobs":[` +
	strings.Repeat(`{"job":{"tasks":9,"deadline":9,"tmin":9,"beta":9,"tauEst":9,"tauKill":9,"phiEst":0.9},"strategy":"mantri"},`, 7) +
	`{"strategy":"clone"}]}`)

func FuzzAdmitBatchResponse(f *testing.F) {
	f.Add([]byte(`{"tenant":"mid","results":[{"admitted":true,"plan":{"strategy":"Speculative-Resume","r":1,"pocd":0.99,"machineTime":228.1,"cost":228.1,"utility":-0.02}},{"admitted":false,"reason":"budget_exhausted"}],"admitted":1,"budgetRemaining":4.38}`))
	f.Add([]byte(`{"tenant":"t<&>","results":[],"admitted":0,"budgetRemaining":-0}`))
	f.Add([]byte(`{"results":null}`))
	f.Add([]byte(`{"results":[null,{"plan":null,"reason":""},{"plan":{"strategy":0}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) { checkEncode(t, data, AppendAdmitBatchResponse) })
}

func FuzzPlan(f *testing.F) {
	f.Add([]byte(`{"strategy":"Mantri","r":3,"pocd":0.5,"machineTime":1,"cost":1,"utility":-1}`))
	f.Add([]byte(`{"strategy":2,"r":-1,"pocd":1e-9,"machineTime":1e21,"cost":6.123e-9,"utility":0}`))
	f.Add([]byte(`{"strategy":"unknown"}`))
	f.Add([]byte(`{"strategy":null}`))
	f.Add([]byte(`{"strategy":" clone "}`))
	f.Fuzz(func(t *testing.T, data []byte) { checkEncode(t, data, AppendPlan) })
}

// FuzzPlanResponse also checks the response /v1/plan serves on a cache hit:
// PlanResponseHead, the plan object rendered once by AppendPlan and copied
// out of a reused buffer that held a longer plan before, then
// AppendPlanResponseTail.
func FuzzPlanResponse(f *testing.F) {
	f.Add([]byte(`{"plan":{"strategy":"Clone","r":2,"pocd":0.9999,"machineTime":123.4,"cost":12.3,"utility":3.21},"cached":true}`))
	f.Add([]byte(`{"plan":{"strategy":"Mantri","r":0,"pocd":0,"machineTime":0,"cost":0,"utility":0},"cached":false}`))
	f.Add([]byte(`{"cached":true}`))
	f.Add([]byte(`{"plan":{"strategy":"Speculative-Restart","r":-9223372036854775808,"pocd":1e-7,"machineTime":1.5e21,"cost":-4.2e-9,"utility":-1.7976931348623157e308},"cached":true}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEncode(t, data, AppendPlanResponse)
		checkEncode(t, data, func(dst []byte, r *PlanResponse) ([]byte, error) {
			slot := []byte(strings.Repeat("x", 256))
			slot, err := AppendPlan(slot[:0], &r.Plan)
			if err != nil {
				return nil, err
			}
			return AppendPlanResponseTail(append(append(dst, PlanResponseHead...), slot...), r.Cached), nil
		})
	})
}

func FuzzAdmitResponse(f *testing.F) {
	f.Add([]byte(`{"admitted":true,"tenant":"analytics","plan":{"strategy":"Speculative-Resume","r":1,"pocd":0.99,"machineTime":10,"cost":1,"utility":0.5},"budgetRemaining":90}`))
	f.Add([]byte(`{"admitted":false,"tenant":"t","reason":"budget_exhausted","budgetRemaining":0.25}`))
	f.Add([]byte(`{"plan":null,"budgetRemaining":-0}`))
	f.Fuzz(func(t *testing.T, data []byte) { checkEncode(t, data, AppendAdmitResponse) })
}

func FuzzReplayEvent(f *testing.F) {
	f.Add([]byte(`{"event":"job_planned","seq":1,"time":0.5,"job":{"id":7,"strategy":"Clone","tasks":10,"arrival":0.5,"deadline":300,"r":2},"traceId":"abc123"}`))
	f.Add([]byte(`{"event":"job_completed","seq":2,"time":310,"job":{"id":7,"strategy":"Clone","tasks":10,"arrival":0.5,"deadline":300},"outcome":{"finish":290,"metDeadline":true,"lateness":0,"machineTime":123,"cost":12.3},"pocd":1}`))
	f.Add([]byte(`{"event":"window_summary","seq":3,"time":600,"window":{"index":0,"start":0,"end":600,"completed":4,"running":{"jobs":4,"submitted":6,"met":3,"pocd":0.75,"meanMachineTime":100,"meanCost":10}}}`))
	f.Add([]byte(`{"event":"replay_summary","seq":9,"time":9000,"summary":{"jobs":10,"submitted":10,"met":9,"pocd":0.9,"meanMachineTime":90,"meanCost":9,"rHistogram":{"2":7,"10":3,"-1":1}}}`))
	f.Add([]byte(`{"event":"error","seq":4,"time":12,"error":"x"}`))
	f.Fuzz(func(t *testing.T, data []byte) { checkEncode(t, data, AppendReplayEvent) })
}

// testInterner interns through a private map, standing in for the server's
// tenant-registry interner.
type testInterner struct{}

func (testInterner) InternString(b []byte) (string, bool) {
	known := map[string]string{"analytics": "analytics", "acme": "acme", "abc": "abc"}
	s, ok := known[string(b)]
	return s, ok
}

var _ Interner = testInterner{}

// FuzzFloatFormat pins jsonfloat.Append to encoding/json's ES6 float format on
// raw bit patterns, not just floats reachable by decoding.
func FuzzFloatFormat(f *testing.F) {
	f.Add(0.0)
	f.Add(-0.0)
	f.Add(1e-6)
	f.Add(9.999999e-7)
	f.Add(1e21)
	f.Add(6.123e-9)
	f.Add(1.7976931348623157e308)
	f.Add(5e-324)
	f.Fuzz(func(t *testing.T, v float64) {
		want, refErr := json.Marshal(v)
		got, hotErr := jsonfloat.Append(nil, v)
		if (refErr == nil) != (hotErr == nil) {
			t.Fatalf("float %v: encoding/json err %v, hotjson err %v", v, refErr, hotErr)
		}
		if refErr == nil && !bytes.Equal(want, got) {
			t.Fatalf("float %v: encoding/json %s, hotjson %s", v, want, got)
		}
	})
}

// FuzzStringEscape pins appendString to encoding/json's escaping on
// arbitrary strings (HTML characters, control bytes, invalid UTF-8,
// U+2028/U+2029).
func FuzzStringEscape(f *testing.F) {
	f.Add("plain")
	f.Add(`quote " backslash \ slash /`)
	f.Add("<script>&amp;</script>")
	f.Add("ctrl \x01 \b\f\n\r\t \x7f")
	f.Add("bad utf8 \xff\xfe ok \u2028\u2029 é")
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Skip()
		}
		got := appendString(nil, s)
		if !bytes.Equal(want, got) {
			t.Fatalf("string %q: encoding/json %s, hotjson %s", s, want, got)
		}
	})
}
