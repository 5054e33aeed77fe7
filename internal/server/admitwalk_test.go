package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"chronos"
	"chronos/api"
	"chronos/internal/optimize"
	"chronos/internal/plankey"
	"chronos/internal/tenant"
)

// restartDipJob costs 1,500 machine-s at r = 0 and 894.1 at r = 1 under
// Speculative-Restart: its cheapest feasible plan is far below r = 0.
func restartDipJob() chronos.JobParams {
	return chronos.JobParams{Tasks: 50, Deadline: 30, TMin: 10, Beta: 1.5, TauEst: 3, TauKill: 6}
}

// plateauJob is testJob killing at the instant it detects, under an econ
// whose theta sinks the price term below the last bit of log10(1 - RMin):
// Speculative-Restart's machine time falls with r from its optimum, r = 12,
// while its utility ties, so the list picks the cheapest of the tied plans.
func plateauJob() (chronos.JobParams, chronos.Econ) {
	job := testJob()
	job.TauKill = job.TauEst
	return job, chronos.Econ{Theta: 1e-30, UnitPrice: 1, RMin: 0.5}
}

// serveAdmit posts body to one of the admit handlers in process, with the
// pool pinned at level first, and decodes the answer into v.
func serveAdmit(t *testing.T, handler http.HandlerFunc, pool *tenant.Pool, level float64, path string, body any, v any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	pool.SetLevel(level)
	w := httptest.NewRecorder()
	handler(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)))
	if w.Code != http.StatusOK {
		t.Fatalf("%s at level %v: status %d: %s", path, level, w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
		t.Fatal(err)
	}
}

// walkDecision is one job's answer with its plan's bytes as served.
type walkDecision struct {
	Admitted bool            `json:"admitted"`
	Plan     json.RawMessage `json:"plan"`
	Reason   string          `json:"reason"`
}

// TestAdmitWalkMatchesPlanWithinBudget: /v1/admit is the shared-pool walk
// over a batch of one. At every pool level of a grid from below a job's
// cheapest plan to above its optimum — each point of its tradeoff curves at
// its exact machine time and that time's two float neighbours among them —
// a one-job /v1/admit/batch answers /v1/admit's plan byte for byte, and
// both answer what BudgetFrontier.PlanWithinBudget answers at that level,
// for the job pinned to each Chronos strategy and left to the best of three.
// On the plateau job's tied plans both pick the cheapest.
func TestAdmitWalkMatchesPlanWithinBudget(t *testing.T) {
	s := New(Config{Tenants: testRegistry(t, "etl", 1e18)})
	defer s.Close()
	pool := s.tenants.Load().Get("etl")
	plateau, plateauEcon := plateauJob()
	for _, c := range []struct {
		job  chronos.JobParams
		econ chronos.Econ
	}{{testJob(), testEcon()}, {restartDipJob(), testEcon()}, {plateau, plateauEcon}} {
		job, econ := c.job, c.econ
		for _, name := range []string{"best", "clone", "s-restart", "s-resume"} {
			strat, best, _ := plankey.ParseStrategy(name)
			bf, err := chronos.NewBudgetFrontier(strat, job, econ)
			strategies := []chronos.Strategy{strat}
			if best {
				bf, err = chronos.NewBudgetFrontierBest(job, econ)
				strategies = chronos.ChronosStrategies()
			}
			if err != nil {
				t.Fatal(err)
			}
			un := bf.Unconstrained()
			levels := []float64{0, un.MachineTime * 1.1, math.Nextafter(un.MachineTime, 0), un.MachineTime}
			for _, st := range strategies {
				curve, err := chronos.TradeoffCurve(st, job, econ, un.R+70)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range curve {
					mt := p.MachineTime
					levels = append(levels, math.Nextafter(mt, 0), mt, math.Nextafter(mt, math.Inf(1)), 0.98*mt)
				}
			}
			admitted := 0
			for _, level := range levels {
				want, wantErr := bf.PlanWithinBudget(level)
				var one struct {
					walkDecision
					BudgetRemaining float64 `json:"budgetRemaining"`
				}
				serveAdmit(t, s.handleAdmit, pool, level, "/v1/admit",
					api.AdmitRequest{Tenant: "etl", Job: job, Strategy: name, Econ: econ}, &one)
				var many struct {
					Results         []walkDecision `json:"results"`
					BudgetRemaining float64        `json:"budgetRemaining"`
				}
				serveAdmit(t, s.handleAdmitBatch, pool, level, "/v1/admit/batch",
					api.AdmitBatchRequest{Tenant: "etl", Jobs: []api.AdmitBatchJob{{Job: job, Strategy: name}}, Econ: econ}, &many)
				got := many.Results[0]
				if got.Admitted != one.Admitted || got.Reason != one.Reason || !bytes.Equal(got.Plan, one.Plan) ||
					many.BudgetRemaining != one.BudgetRemaining {
					t.Fatalf("%s %+v at level %v: batch %+v (remaining %v), admit %+v (remaining %v)",
						name, job, level, got, many.BudgetRemaining, one.walkDecision, one.BudgetRemaining)
				}
				if wantErr != nil {
					if !errors.Is(wantErr, optimize.ErrBudgetTooSmall) || one.Admitted || one.Reason != api.ReasonBudgetExhausted {
						t.Fatalf("%s %+v at level %v: admit %+v, PlanWithinBudget %v", name, job, level, one.walkDecision, wantErr)
					}
					continue
				}
				var plan chronos.Plan
				if err := json.Unmarshal(one.Plan, &plan); err != nil || plan != want {
					t.Fatalf("%s %+v at level %v: admit plan %s, PlanWithinBudget %+v", name, job, level, one.Plan, want)
				}
				admitted++
			}
			if admitted == 0 || admitted == len(levels) {
				t.Errorf("%s %+v: %d of %d levels admitted; the grid does not cross the cheapest plan", name, job, admitted, len(levels))
			}
		}
	}
}

// mixedBatch16 is a 16-job batch of varied shapes, each job pinned to a
// Chronos strategy or left to the best of three in turn.
func mixedBatch16() []api.AdmitBatchJob {
	names := []string{"", "clone", "s-restart", "s-resume"}
	batch := make([]api.AdmitBatchJob, 16)
	for i := range batch {
		batch[i].Job = testJob()
		batch[i].Job.Tasks = 5 + 3*i
		batch[i].Job.Deadline = 80 + 5*float64(i)
		batch[i].Strategy = names[i%len(names)]
	}
	return batch
}

// batchOptima returns each job's own unconstrained optimum under econ and
// their machine time summed in job order.
func batchOptima(t *testing.T, jobs []api.AdmitBatchJob, econ chronos.Econ) ([]chronos.Plan, float64) {
	t.Helper()
	optima, sum := make([]chronos.Plan, len(jobs)), 0.0
	for i, j := range jobs {
		strat, best, _ := plankey.ParseStrategy(j.Strategy)
		var err error
		if best {
			optima[i], err = chronos.OptimizeBest(j.Job, econ)
		} else {
			optima[i], err = chronos.Optimize(strat, j.Job, econ)
		}
		if err != nil {
			t.Fatal(err)
		}
		sum += optima[i].MachineTime
	}
	return optima, sum
}

// TestAdmitBatchAmplePoolGivesEveryOptimum: when the jobs' optima fit the
// pool — exactly, or with room to spare — every job of a mixed 16-job batch
// is admitted at its own optimum, as /v1/admit would admit it alone, and the
// batch debits their sum.
func TestAdmitBatchAmplePoolGivesEveryOptimum(t *testing.T) {
	jobs := mixedBatch16()
	optima, sum := batchOptima(t, jobs, testEcon())
	for _, factor := range []float64{1, 2} {
		s := New(Config{Tenants: testRegistry(t, "etl", 1e18)})
		pool := s.tenants.Load().Get("etl")
		var got api.AdmitBatchResponse
		serveAdmit(t, s.handleAdmitBatch, pool, factor*sum, "/v1/admit/batch",
			api.AdmitBatchRequest{Tenant: "etl", Jobs: jobs, Econ: testEcon()}, &got)
		if got.Admitted != len(jobs) {
			t.Errorf("pool %v x the optima: %d of %d admitted", factor, got.Admitted, len(jobs))
		}
		spent := 0.0
		for i, r := range got.Results {
			if !r.Admitted || *r.Plan != optima[i] {
				t.Errorf("pool %v x the optima: job %d got %+v, want its optimum %+v", factor, i, r, optima[i])
				continue
			}
			spent += r.Plan.MachineTime
		}
		if want := factor*sum - spent; math.Abs(got.BudgetRemaining-want) > 1e-9*sum {
			t.Errorf("pool %v x the optima: %v remaining, want %v", factor, got.BudgetRemaining, want)
		}
		s.Close()
	}
}

// TestAdmitBatchSqueezedPoolAdmitsEveryJob: at a pool of 0.95x the sum of
// the jobs' own optima, deciding in request order and squeezing each job
// into what the ones before it left rejected the batch's last job. Request
// order now only decides who is admitted; every job's cheapest plan fits, so
// every job is admitted, and the walk spends the pool across them without
// overdrawing it and stops only when no job's better plan fits in what is
// left.
func TestAdmitBatchSqueezedPoolAdmitsEveryJob(t *testing.T) {
	jobs := mixedBatch16()
	optima, sum := batchOptima(t, jobs, testEcon())
	level := 0.95 * sum
	s := New(Config{Tenants: testRegistry(t, "etl", 1e18)})
	defer s.Close()
	pool := s.tenants.Load().Get("etl")
	var got api.AdmitBatchResponse
	serveAdmit(t, s.handleAdmitBatch, pool, level, "/v1/admit/batch",
		api.AdmitBatchRequest{Tenant: "etl", Jobs: jobs, Econ: testEcon()}, &got)
	spent, lowest := 0.0, 1.0
	for i, r := range got.Results {
		if !r.Admitted {
			t.Errorf("job %d rejected (%s) at 0.95x the optima", i, r.Reason)
			continue
		}
		if r.Plan.MachineTime > optima[i].MachineTime || r.Plan.Utility > optima[i].Utility {
			t.Errorf("job %d got %+v, beyond its own optimum %+v", i, *r.Plan, optima[i])
		}
		spent += r.Plan.MachineTime
		lowest = min(lowest, r.Plan.PoCD)
	}
	for i, r := range got.Results {
		if !r.Admitted {
			continue
		}
		strat, best, _ := plankey.ParseStrategy(jobs[i].Strategy)
		bf, err := chronos.NewBudgetFrontier(strat, jobs[i].Job, testEcon())
		if best {
			bf, err = chronos.NewBudgetFrontierBest(jobs[i].Job, testEcon())
		}
		if err != nil {
			t.Fatal(err)
		}
		if alt, err := bf.PlanWithinBudget(r.Plan.MachineTime + got.BudgetRemaining); err == nil && alt.Utility > r.Plan.Utility {
			t.Errorf("job %d stopped at %+v though %+v fits in what is left", i, *r.Plan, alt)
		}
	}
	if got.Admitted != len(jobs) {
		t.Errorf("%d of %d admitted", got.Admitted, len(jobs))
	}
	if spent > level || got.BudgetRemaining < 0 {
		t.Errorf("spent %v of a %v pool, %v remaining", spent, level, got.BudgetRemaining)
	}
	t.Logf("%d admitted, %.1f of %.1f machine-s spent, lowest PoCD %.3f", got.Admitted, spent, level, lowest)
}
