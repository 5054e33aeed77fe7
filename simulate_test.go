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
