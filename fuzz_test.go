package chronos

import (
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"

	"chronos/internal/optimize"
)

// FuzzParseStrategy hardens the name parser every wire surface funnels
// through (CLI flags, chronosd requests, round-tripped plans): arbitrary
// input must either parse to a strategy whose canonical name re-parses to
// itself, or fail cleanly.
func FuzzParseStrategy(f *testing.F) {
	for _, seed := range []string{
		"clone", "Clone", " CLONE ", "speculative-restart", "s-restart",
		"restart", "resume", "hadoop-ns", "hadoopS", "mantri", "MANTRI",
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
		`"clone"`, `"Speculative-Resume"`, `"Hadoop-S"`, `0`, `6`, `-1`, `7`,
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
		`{"plan":{"strategy":"Mantri","r":3,"pocd":0.5,"machineTime":1,"cost":1,"utility":-1}}`,
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
		if plan.Strategy < Clone || plan.Strategy > Mantri {
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

// FuzzSimulateNoPanic is the simulator's input contract: for any
// JSON-decodable request inside the bounds chronosd enforces before it calls
// Simulate or Replay (cluster shape, start-up delays in [0, 1e5], per-job
// tasks, deadline, tmin and reduceTMin at most 1e5, and arrival — restated
// here because the server imports this package), a run under a 2 s context
// returns an error or a report — never a panic. The report's numbers are
// finite (utility may be -Inf, its documented value at or below RMin)
// wherever float64 cannot overflow on the way: no number in the request above
// 1e6 in magnitude (a tail index at or below 1 is an error, so a Pareto
// sample is at most tmin * 2^53; a 1e308 price still yields an honest +Inf).
// The first two seeds are the bodies that did panic, a control instant
// scheduled before the clock; the third launched r+1 = 4,000,001 attempts of
// one task; the last three overflowed machine time to +Inf, which /v1/simulate
// answered 500 `response encoding failed`, until the start-up delay and task
// time caps.
func FuzzSimulateNoPanic(f *testing.F) {
	for _, seed := range []string{
		`{"config":{"strategy":"Speculative-Restart","tauEst":-5,"tauKill":1},"jobs":[{"tasks":4,"deadline":100,"tmin":10,"beta":1.5}]}`,
		`{"config":{"strategy":"Clone","tauKill":-1},"jobs":[{"tasks":4,"deadline":100,"tmin":10,"beta":1.5}]}`,
		`{"config":{"strategy":"Clone","useFixedR":true,"fixedR":4000000},"jobs":[{"tasks":1,"deadline":100,"tmin":10,"beta":1.5}]}`,
		`{"config":{"strategy":"s-resume","seed":7,"tauEst":40,"tauKill":80,"tauScale":1},"jobs":[{"tasks":10,"deadline":100,"tmin":10,"beta":1.5}]}`,
		`{"config":{"strategy":"clone","tauEst":0.3,"tauKill":0.6,"tauScale":2},"jobs":[{"tasks":2,"deadline":50,"tmin":10,"beta":1.2}]}`,
		`{"config":{"strategy":"mantri","nodes":2,"slotsPerNode":1},"jobs":[{"tasks":6,"deadline":40,"tmin":10,"beta":1.1,"reduceTasks":2},{"tasks":3,"deadline":30,"tmin":5,"beta":1.9,"arrival":10}]}`,
		`{"config":{"strategy":"restart","tauEst":1e300,"tauKill":1e308,"reportInterval":2,"reportNoise":0.5,"useHadoopEstimator":true},"jobs":[{"tasks":4,"deadline":100,"tmin":10,"beta":1.5}]}`,
		`{"config":{"strategy":"hadoop-s","econ":{"theta":1e-4,"unitPrice":1,"rmin":0.999}},"jobs":[{"tasks":12,"deadline":20,"tmin":10,"beta":1.5}]}`,
		`{"config":{"strategy":"resume"},"jobs":[{"tasks":12,"deadline":20,"tmin":10,"beta":0.00625,"reduceTasks":2}]}`,
		`{"config":{"strategy":"Clone","jvmMin":1e308,"jvmMax":1e308},"jobs":[{"tasks":4,"deadline":100,"tmin":10,"beta":1.5}]}`,
		`{"config":{"strategy":"Clone"},"jobs":[{"tasks":4,"deadline":100,"tmin":1e308,"beta":1.5}]}`,
		`{"config":{"strategy":"Clone"},"jobs":[{"tasks":4,"deadline":100,"tmin":10,"beta":1.5,"reduceTasks":2,"reduceTMin":1e308}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req struct {
			Config SimConfig `json:"config"`
			Jobs   []SimJob  `json:"jobs"`
		}
		if json.Unmarshal(body, &req) != nil || len(req.Jobs) < 1 || len(req.Jobs) > 3 {
			return
		}
		c := req.Config
		if c.Nodes < 0 || c.Nodes > 4096 || c.SlotsPerNode < 0 || c.SlotsPerNode > 64 ||
			!(c.JVMMin >= 0 && c.JVMMin <= 1e5 && c.JVMMax >= 0 && c.JVMMax <= 1e5) {
			return
		}
		var numbers any
		_ = json.Unmarshal(body, &numbers) // it decoded once already
		overflowFree := tame(numbers)
		for _, j := range req.Jobs {
			if j.Tasks < 1 || j.ReduceTasks < 0 || j.Tasks+j.ReduceTasks > 16 ||
				!(j.Deadline > 0) || j.Deadline > 1e5 || j.TMin > 1e5 || j.ReduceTMin > 1e5 ||
				j.Arrival < 0 || j.Arrival > 1e6 {
				return
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		rep, err := Replay(ctx, c, req.Jobs, ReplayOptions{WindowSeconds: 300})
		if err != nil || !overflowFree {
			return
		}
		finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		if !finite(rep.PoCD) || !finite(rep.MeanMachineTime) || !finite(rep.MeanCost) ||
			math.IsNaN(rep.Utility) || math.IsInf(rep.Utility, 1) {
			t.Fatalf("Replay(%s) = %+v with a nil error", body, rep)
		}
	})
}

// tame reports whether every number in a decoded JSON value is at most 1e6 in
// magnitude.
func tame(v any) bool {
	switch v := v.(type) {
	case float64:
		return math.Abs(v) <= 1e6
	case []any:
		for _, e := range v {
			if !tame(e) {
				return false
			}
		}
	case map[string]any:
		for _, e := range v {
			if !tame(e) {
				return false
			}
		}
	}
	return true
}
