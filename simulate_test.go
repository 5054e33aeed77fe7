package chronos

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"chronos/internal/optimize"
)

func TestSimulateReduceStage(t *testing.T) {
	jobs := []SimJob{
		{Tasks: 8, Deadline: 300, TMin: 10, Beta: 1.5, ReduceTasks: 4},
		{Tasks: 6, Deadline: 300, TMin: 10, Beta: 1.5, ReduceTasks: 3,
			ReduceTMin: 5, ReduceBeta: 1.8, Arrival: 500},
	}
	for _, s := range []Strategy{HadoopNS, HadoopS, Mantri, Clone, SpeculativeRestart, SpeculativeResume} {
		rep, err := Simulate(SimConfig{Strategy: s, Seed: 31}, jobs)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if rep.Jobs != 2 {
			t.Errorf("%v: Jobs = %d, want 2", s, rep.Jobs)
		}
		if rep.MeanMachineTime <= 0 {
			t.Errorf("%v: machine time %v", s, rep.MeanMachineTime)
		}
	}
}

func TestSimulateReduceValidation(t *testing.T) {
	jobs := []SimJob{{Tasks: 2, Deadline: 100, TMin: 10, Beta: 1.5,
		ReduceTasks: 1, ReduceBeta: -1}}
	if _, err := Simulate(SimConfig{Strategy: HadoopNS}, jobs); err == nil {
		t.Error("invalid reduce beta accepted")
	}
}

func TestSimulateSpotPricing(t *testing.T) {
	jobs := Benchmarks()[0].Jobs(60, 10, 400)
	fixed, err := Simulate(SimConfig{Strategy: HadoopNS, Seed: 13}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	spot, err := Simulate(SimConfig{
		Strategy: HadoopNS, Seed: 13,
		Spot: &SpotMarket{Mean: 1, Volatility: 0.3},
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Identical seeds: same schedule, same machine time; only pricing
	// differs.
	if fixed.MeanMachineTime != spot.MeanMachineTime {
		t.Errorf("spot pricing changed the schedule: %v vs %v",
			fixed.MeanMachineTime, spot.MeanMachineTime)
	}
	if spot.MeanCost == fixed.MeanCost {
		t.Error("spot cost identical to fixed cost; series had no effect")
	}
	// Mean-reverting around the same mean: costs within a band.
	ratio := spot.MeanCost / fixed.MeanCost
	if ratio < 0.5 || ratio > 1.5 {
		t.Errorf("spot/fixed cost ratio %v implausible", ratio)
	}
}

func TestSimulateSpotDefaultsFromEcon(t *testing.T) {
	jobs := []SimJob{{Tasks: 2, Deadline: 100, TMin: 10, Beta: 1.5}}
	rep, err := Simulate(SimConfig{
		Strategy: HadoopNS, Seed: 17,
		Econ: Econ{Theta: 1e-4, UnitPrice: 2},
		Spot: &SpotMarket{}, // mean defaults to Econ.UnitPrice
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeanCost <= 0 {
		t.Errorf("spot-priced cost = %v", rep.MeanCost)
	}
	// Cost should be near 2x machine time (mean price 2).
	ratio := rep.MeanCost / rep.MeanMachineTime
	if math.Abs(ratio-2) > 1 {
		t.Errorf("cost/machine-time ratio %v, want ~2", ratio)
	}
}

// TestSimulateRejectsBadControl: a control instant before its stage, an
// undefined tau scale or an unbounded fixed r is an error from Simulate, not
// a panic in the engine ("sim: schedule at -50 before now 0") and not r+1 =
// four million attempts of one task.
func TestSimulateRejectsBadControl(t *testing.T) {
	jobs := []SimJob{{Tasks: 4, Deadline: 100, TMin: 10, Beta: 1.5}}
	for name, cfg := range map[string]SimConfig{
		"negative tauEst":  {Strategy: SpeculativeRestart, TauEst: -5, TauKill: 1},
		"negative tauKill": {Strategy: Clone, TauKill: -1},
		"NaN tauEst":       {Strategy: SpeculativeResume, TauEst: math.NaN(), TauKill: 1},
		"infinite tauKill": {Strategy: Clone, TauKill: math.Inf(1)},
		"baseline too":     {Strategy: HadoopS, TauEst: -5, TauKill: 1},
		"tauScale 2":       {Strategy: Clone, TauEst: 0.3, TauKill: 0.6, TauScale: 2},
		"tauScale -1":      {Strategy: Clone, TauEst: 0.3, TauKill: 0.6, TauScale: -1},
		"fixedR at cap":    {Strategy: Clone, UseFixedR: true, FixedR: maxFixedR},
		"fixedR 4e6":       {Strategy: Clone, UseFixedR: true, FixedR: 4_000_000},
	} {
		start := time.Now()
		if rep, err := Simulate(cfg, jobs); err == nil {
			t.Errorf("%s: accepted, report %+v", name, rep)
		}
		if d := time.Since(start); d > 50*time.Millisecond {
			t.Errorf("%s: rejected only after %v", name, d)
		}
	}
	if !strings.Contains(optimize.ErrSearchCap.Error(), strconv.Itoa(maxFixedR)) {
		t.Errorf("maxFixedR = %d is not the planner's search cap (%v)", maxFixedR, optimize.ErrSearchCap)
	}

	// What stays accepted: a small fixed r, and a negative one, which keeps
	// its documented meaning — use the optimizer.
	fixed, err := Simulate(SimConfig{Strategy: Clone, Seed: 5, UseFixedR: true, FixedR: 3}, jobs)
	if err != nil || fixed.RHistogram[3] != 1 {
		t.Errorf("fixedR 3: report %+v, err %v; want one job at r = 3", fixed, err)
	}
	planned, err := Simulate(SimConfig{Strategy: Clone, Seed: 5}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	negative, err := Simulate(SimConfig{Strategy: Clone, Seed: 5, UseFixedR: true, FixedR: -1}, jobs)
	if err != nil || !reflect.DeepEqual(negative, planned) {
		t.Errorf("negative fixedR: report %+v, err %v; want the optimizer's %+v", negative, err, planned)
	}
}

// TestSimulateRejectsBadEcon: a theta, unit price or spot mean that is
// negative, non-finite or above maxEcon is an error from Simulate. A 1e308
// price used to report an infinite cost (500 `response encoding failed` on
// /v1/simulate), a negative one a negative cost and a positive utility, and a
// negative theta a utility of 97.5.
func TestSimulateRejectsBadEcon(t *testing.T) {
	job := SimJob{Tasks: 4, Deadline: 100, TMin: 10, Beta: 1.5}
	priced := func(price float64) []SimJob {
		j := job
		j.UnitPrice = price
		return []SimJob{j}
	}
	econ := func(theta, price float64) SimConfig {
		return SimConfig{Strategy: Clone, Econ: Econ{Theta: theta, UnitPrice: price}}
	}
	spot := func(mean float64) SimConfig {
		return SimConfig{Strategy: Clone, Spot: &SpotMarket{Mean: mean}}
	}
	for name, tc := range map[string]struct {
		cfg  SimConfig
		jobs []SimJob
	}{
		"econ.unitPrice 1e308": {econ(1e-4, 1e308), []SimJob{job}},
		"econ.unitPrice -5":    {econ(1e-4, -5), []SimJob{job}},
		"econ.unitPrice +Inf":  {econ(1e-4, math.Inf(1)), []SimJob{job}},
		"econ.theta -1":        {econ(-1, 1), []SimJob{job}},
		"econ.theta 1e308":     {econ(1e308, 1), []SimJob{job}},
		"econ.theta NaN":       {econ(math.NaN(), 1), []SimJob{job}},
		"job unitPrice 1e308":  {SimConfig{Strategy: Clone}, priced(1e308)},
		"job unitPrice -5":     {SimConfig{Strategy: Clone}, priced(-5)},
		"job unitPrice NaN":    {SimConfig{Strategy: Clone}, priced(math.NaN())},
		"spot.mean 1e308":      {spot(1e308), []SimJob{job}},
		"spot.mean -1":         {spot(-1), []SimJob{job}},
		"just above the cap":   {econ(1e-4, math.Nextafter(maxEcon, math.Inf(1))), []SimJob{job}},
	} {
		if rep, err := Simulate(tc.cfg, tc.jobs); err == nil {
			t.Errorf("%s: accepted, report %+v", name, rep)
		}
	}

	// The cap itself and the defaults (a zero job price inherits econ's, a
	// zero spot mean follows it) still simulate, with finite numbers.
	for name, tc := range map[string]struct {
		cfg  SimConfig
		jobs []SimJob
	}{
		"theta and price at the cap": {econ(maxEcon, maxEcon), priced(maxEcon)},
		"spot mean at the cap":       {spot(maxEcon), []SimJob{job}},
		"defaults":                   {spot(0), priced(0)},
	} {
		rep, err := Simulate(tc.cfg, tc.jobs)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if math.IsInf(rep.MeanCost, 0) || math.IsNaN(rep.MeanCost) || math.IsNaN(rep.Utility) || math.IsInf(rep.Utility, 1) {
			t.Errorf("%s: report %+v is not finite", name, rep)
		}
	}
}
