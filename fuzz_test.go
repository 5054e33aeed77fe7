package chronos

import (
	"encoding/json"
	"math"
	"testing"

	"chronos/internal/optimize"
)

// FuzzParseStrategy hardens the name parser every wire surface funnels
// through (CLI flags, chronosd requests, round-tripped plans): arbitrary
// input must either parse to a strategy whose canonical name re-parses to
// itself, or fail cleanly.
func FuzzParseStrategy(f *testing.F) {
	for _, seed := range []string{
		"clone", "Clone", " CLONE ", "speculative-restart", "s-restart",
		"restart", "resume", "hadoop-ns", "hadoopS", "mantri", "late",
		"best", "", "c\x00lone", "Speculative-Resume",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		s, err := ParseStrategy(name)
		if err != nil {
			return
		}
		back, err := ParseStrategy(s.String())
		if err != nil || back != s {
			t.Fatalf("ParseStrategy(%q) = %v, but canonical %q does not re-parse: %v",
				name, s, s.String(), err)
		}
	})
}

// FuzzStrategyJSON drives Strategy's custom (un)marshaling with arbitrary
// JSON: decoding must never panic, and anything that decodes must survive a
// marshal/unmarshal round trip unchanged.
func FuzzStrategyJSON(f *testing.F) {
	for _, seed := range []string{
		`"clone"`, `"Speculative-Resume"`, `"LATE"`, `0`, `6`, `-1`, `7`,
		`3.5`, `null`, `{}`, `[]`, `"best"`, `""`, `1e999`,
		`" "`, `18446744073709551616`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Strategy
		if err := s.UnmarshalJSON(data); err != nil {
			return
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("strategy %v decoded from %q but does not marshal: %v", s, data, err)
		}
		var back Strategy
		if err := json.Unmarshal(out, &back); err != nil || back != s {
			t.Fatalf("strategy %v round-trips through %s to %v (err %v)", s, out, back, err)
		}
	})
}

// planRequestWire mirrors the chronosd /v1/plan request body using the root
// API types, so the fuzzer exercises exactly the decode path an untrusted
// client reaches.
type planRequestWire struct {
	Job      JobParams `json:"job"`
	Econ     Econ      `json:"econ"`
	Strategy string    `json:"strategy,omitempty"`
	Tenant   string    `json:"tenant,omitempty"`
}

// FuzzPlanRequestJSON feeds arbitrary bytes through the plan-request decode
// plus a Plan round trip: no input may panic the decoder, and any decodable
// request must re-encode losslessly.
func FuzzPlanRequestJSON(f *testing.F) {
	for _, seed := range []string{
		`{"job":{"tasks":10,"deadline":100,"tmin":10,"beta":1.5,"tauEst":30,"tauKill":60},"econ":{"theta":1e-4,"unitPrice":1}}`,
		`{"job":{"tasks":-1},"strategy":"clone"}`,
		`{"job":{"deadline":1e308,"beta":-1e308},"econ":{"rmin":2}}`,
		`{"strategy":"nope","tenant":"etl"}`,
		`{"job":null,"econ":null}`,
		`{}`, `[]`, `""`, `0`,
		`{"plan":{"strategy":"LATE","r":3,"pocd":0.5,"machineTime":1,"cost":1,"utility":-1}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req planRequestWire
		if err := json.Unmarshal(data, &req); err != nil {
			return
		}
		out, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("request decoded from %q but does not marshal: %v", data, err)
		}
		var back planRequestWire
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("re-encoded request %s does not decode: %v", out, err)
		}
		if back != req {
			t.Fatalf("plan request round-trip changed: %+v -> %+v", req, back)
		}

		// A Plan embeds the custom Strategy coding; round-trip it too when
		// the input happens to decode as one. A JSON object without a
		// "strategy" member leaves the zero (invalid) Strategy in place —
		// Go never calls UnmarshalJSON for absent fields — and such a Plan
		// must refuse to marshal rather than emit undecodable "Unknown".
		var plan Plan
		if err := json.Unmarshal(data, &plan); err != nil {
			return
		}
		out, err = json.Marshal(plan)
		if plan.Strategy < Clone || plan.Strategy > LATE {
			if err == nil {
				t.Fatalf("invalid strategy %d marshaled to %s", plan.Strategy, out)
			}
			return
		}
		if err != nil {
			t.Fatalf("plan decoded from %q but does not marshal: %v", data, err)
		}
		var planBack Plan
		if err := json.Unmarshal(out, &planBack); err != nil || planBack != plan {
			t.Fatalf("plan round-trips through %s to %+v (err %v)", out, planBack, err)
		}
	})
}

// FuzzOptimizeFinite is the planner's output contract: for any valid job and
// econ, every solver entry point returns an error or a plan whose four floats
// are finite. The committed seeds are requests that once broke it: D - tauEst
// within a percent of tmin, where Restart's threshold Gamma is in the hundreds
// and tmin^(beta*r) leaves float64, and within a millionth of it, where Gamma
// is in the millions.
func FuzzOptimizeFinite(f *testing.F) {
	f.Add(1000, 20.0, 10.0, 1.5, 9.9, 15.0, 0.0, 1e-4, 1.0, 0.0)
	f.Add(1000, 20.0, 10.0, 1.5, 9.999997, 15.0, 0.0, 1e-4, 1.0, 0.0)
	f.Add(10, 100.0, 10.0, 1.5, 30.0, 60.0, 0.0, 1e-4, 1.0, 0.0)
	f.Add(10, 100.0, 10.0, 5.0, 30.0, 60.0, 0.0, 1e-4, 1.0, 0.0)
	f.Add(10, 100.0, 10.0, 1.5, 40.0, 40.0, 0.0, 1e-4, 1.0, 0.0)
	f.Add(3, 10.05, 10.0, 1.5, 0.0, 10.05, 0.5, 1e-9, 1.0, 0.9)
	f.Fuzz(func(t *testing.T, tasks int, deadline, tmin, beta, tauEst, tauKill, phiEst, theta, price, rmin float64) {
		p := JobParams{Tasks: tasks, Deadline: deadline, TMin: tmin, Beta: beta, TauEst: tauEst, TauKill: tauKill, PhiEst: phiEst}
		e := Econ{Theta: theta, UnitPrice: price, RMin: rmin}
		if _, err := p.toAnalysis(); err != nil || optimize.Config(e).Validate() != nil {
			return
		}
		check := func(what string, plan Plan, err error) {
			if err != nil {
				return
			}
			for _, v := range [...]float64{plan.PoCD, plan.MachineTime, plan.Cost, plan.Utility} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s(%+v, %+v) = %+v with a nil error", what, p, e, plan)
				}
			}
		}
		best, err := OptimizeBest(p, e)
		check("OptimizeBest", best, err)
		for _, s := range ChronosStrategies() {
			plan, err := Optimize(s, p, e)
			check("Optimize "+s.String(), plan, err)
			if err == nil {
				plan, err = OptimizeWithinBudget(s, p, e, 0.9*plan.MachineTime)
				check("OptimizeWithinBudget "+s.String(), plan, err)
			}
			if rmin < 0.99 { // a target at or below RMin is met at utility -Inf
				plan, err = MinCostForPoCD(s, p, e, 0.99)
				check("MinCostForPoCD "+s.String(), plan, err)
			}
		}
	})
}
